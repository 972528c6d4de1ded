#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_set>

#include "codec.hpp"
#include "gate.hpp"
#include "service/session.hpp"
#include "stats.hpp"

namespace perfbench {

using dbr::net::Client;
using dbr::net::Server;
using dbr::net::ServerOptions;
using dbr::net::TransportError;
using dbr::net::WireStatus;
using dbr::service::EmbedEngine;
using dbr::service::EngineOptions;
using dbr::service::ShardRouter;

namespace {

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

std::uint64_t rss_checkpoint_ops(Workload w) {
  // Reached within the first 5 s of a window even on a slow run; cold_sweep's
  // is past the point where the 4096-entry result cache is full.
  return w == Workload::kColdSweep ? 5000 : 20000;
}

EngineOptions engine_options(Workload w) {
  EngineOptions o;
  o.incremental_repair = w == Workload::kChurnSession;
  return o;
}

Stack::Stack(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  ServerOptions so;
  so.workers = kServerWorkers;
  if (workload == Workload::kHotReplay) {
    dbr::service::FabricOptions fo;
    fo.shards = kFabricShards;
    fabric_ = std::make_unique<ShardRouter>(fo);
    server_ = std::make_unique<Server>(*fabric_, so);
  } else {
    engine_ = std::make_unique<EmbedEngine>(engine_options(workload));
    server_ = std::make_unique<Server>(*engine_, so);
  }
  server_->start();
  for (Client& c : clients_) c.connect("127.0.0.1", server_->port(), 60000.0);

  // Warm-up pass: every context and (hot_replay) every result the measured
  // window will ask for.
  switch (workload) {
    case Workload::kHotReplay:
      hot_pool_ = make_hot_pool(seed);
      for (unsigned c = 0; c < kConnections; ++c) hot_streams_[c].emplace(seed, c);
      for (std::size_t i = 0; i < hot_pool_.size(); ++i) {
        const unsigned c = static_cast<unsigned>(i % kConnections);
        Sample s = solve(c, hot_pool_[i], nullptr, 0, -1);
        s.request = i;
        logs_[c].setup.push_back(s);
      }
      break;
    case Workload::kColdSweep: {
      const std::vector<EmbedRequest> warm = make_cold_warmup(seed);
      for (std::size_t i = 0; i < warm.size(); ++i) {
        const unsigned c = static_cast<unsigned>(i % kConnections);
        Sample s = solve(c, warm[i], nullptr, 0, -1);
        s.request = logs_[c].requests.size();
        logs_[c].requests.push_back(warm[i]);
        logs_[c].setup.push_back(s);
      }
      cold_stream_ = std::make_unique<ColdStream>(seed);
      break;
    }
    case Workload::kChurnSession:
      for (unsigned c = 0; c < kConnections; ++c) {
        scripts_[c] = std::make_unique<ChurnScript>(seed, c);
        const SessionSpec& spec = scripts_[c]->spec();
        if (clients_[c].configure_session(spec.base, spec.n, spec.kind).status !=
            WireStatus::kOk)
          throw std::runtime_error("session configuration was refused");
        for (std::size_t k = 0; k < ChurnScript::kSetupSteps; ++k) {
          const Mutation m = scripts_[c]->setup_step(k);
          const bool changed = mutate(c, m);
          Sample s = session_solve(c, nullptr, 0, -1);
          s.mutation = m;
          s.failed = s.failed || !changed;
          logs_[c].setup.push_back(s);
        }
      }
      break;
  }
  for (const ConnLog& log : logs_) {
    for (const Sample& s : log.setup) {
      if (s.failed) throw std::runtime_error("warm-up request failed: " + log.error);
    }
  }
}

Stack::~Stack() {
  for (Client& c : clients_) c.close();
  server_->stop();
}

dbr::service::EngineStatsSnapshot Stack::engine_stats() const {
  return fabric_ ? fabric_->aggregate_engine_stats() : engine_->stats_snapshot();
}

namespace {

/// One solve-shaped round trip (`call` returns a Client::SolveReply), timed
/// and then hashed outside its span; failures are recorded on `log`.
template <typename Call>
Sample timed_solve(Call&& call, ConnLog& log, bool& transport_lost, Tracer* tracer,
                   const char* span_name, std::uint64_t request_id, std::int64_t parent) {
  Sample s;
  const std::int64_t span = tracer ? tracer->begin(span_name, request_id, parent) : -1;
  const Clock::time_point t0 = Clock::now();
  std::optional<Client::SolveReply> reply;
  try {
    reply = call();
  } catch (const TransportError& e) {
    transport_lost = true;
    if (log.error.empty()) log.error = e.what();
  }
  s.rtt_us = us_since(t0);
  if (tracer) tracer->end(span);
  if (!reply || reply->status != WireStatus::kOk) {
    s.failed = true;
    if (reply && log.error.empty())
      log.error = std::string("wire status ") + dbr::net::to_string(reply->status);
    return s;
  }
  const Clock::time_point h0 = Clock::now();
  s.hash = answer_hash(reply->embed);
  s.client_us = us_since(h0);
  s.reply_words = reply->embed.ring.size();
  s.cache_hit = reply->embed.cache_hit;
  return s;
}

}  // namespace

Sample Stack::solve(unsigned c, const EmbedRequest& request, Tracer* tracer,
                    std::uint64_t request_id, std::int64_t parent) {
  return timed_solve([&] { return clients_[c].solve(request, true); }, logs_[c],
                     transport_lost_[c], tracer, "tcp.solve", request_id, parent);
}

Sample Stack::session_solve(unsigned c, Tracer* tracer, std::uint64_t request_id,
                            std::int64_t parent) {
  return timed_solve([&] { return clients_[c].session_solve(true); }, logs_[c],
                     transport_lost_[c], tracer, "tcp.session_solve", request_id, parent);
}

bool Stack::mutate(unsigned c, const Mutation& m) {
  try {
    const Client::FaultReply reply = m.add ? clients_[c].add_fault(m.kind, m.word)
                                           : clients_[c].clear_fault(m.kind, m.word);
    if (reply.status == WireStatus::kOk && reply.changed) return true;
    if (logs_[c].error.empty())
      logs_[c].error = reply.status != WireStatus::kOk
                           ? std::string("wire status ") + dbr::net::to_string(reply.status)
                           : "a mutation reported no change";
  } catch (const TransportError& e) {
    transport_lost_[c] = true;
    if (logs_[c].error.empty()) logs_[c].error = e.what();
  }
  return false;
}

Sample Stack::step(unsigned c, Tracer* tracer, std::uint64_t request_id) {
  switch (workload_) {
    case Workload::kHotReplay: {
      const Clock::time_point t0 = Clock::now();
      const std::size_t index = hot_streams_[c]->next();
      const double draw_us = us_since(t0);
      Sample s = solve(c, hot_pool_[index], tracer, request_id, -1);
      s.request = index;
      s.client_us += draw_us;
      return s;
    }
    case Workload::kColdSweep: {
      const Clock::time_point t0 = Clock::now();
      EmbedRequest r = cold_stream_->next();
      const double draw_us = us_since(t0);
      Sample s = solve(c, r, tracer, request_id, -1);
      s.request = logs_[c].requests.size();
      logs_[c].requests.push_back(std::move(r));
      s.client_us += draw_us;
      return s;
    }
    case Workload::kChurnSession: {
      const Clock::time_point d0 = Clock::now();
      const Mutation m = scripts_[c]->next();
      const double draw_us = us_since(d0);
      const std::int64_t root = tracer ? tracer->begin("tcp.step", request_id) : -1;
      const std::int64_t mspan =
          tracer ? tracer->begin("tcp.mutate", request_id, root) : -1;
      const Clock::time_point t0 = Clock::now();
      const bool ok = mutate(c, m);
      const double mutate_us = us_since(t0);
      if (tracer) tracer->end(mspan);
      Sample s = session_solve(c, tracer, request_id, root);
      if (tracer) tracer->end(root);
      s.mutation = m;
      s.rtt_us += mutate_us;
      s.client_us += draw_us;
      s.failed = s.failed || !ok;
      return s;
    }
  }
  return {};
}

namespace {

/// `client_us[k]` is the load generator's own work over every operation that
/// completed in sub-window k; it is taken out of that sub-window's CPU.
WindowMetrics reduce(const std::vector<std::vector<double>>& per_window,
                     const std::vector<double>& edges,
                     const std::vector<double>& cpu_marks,
                     const std::vector<double>& client_us) {
  WindowMetrics m;
  std::vector<double> p50s, p90s, rps, cpu, client, all;
  for (std::size_t k = 0; k < per_window.size(); ++k) {
    if (per_window[k].empty()) continue;
    ++m.sub_windows;
    const auto ops = static_cast<double>(per_window[k].size());
    p50s.push_back(percentile(per_window[k], 50).value);
    p90s.push_back(percentile(per_window[k], 90).value);
    rps.push_back(ops / (edges[k + 1] - edges[k]));
    cpu.push_back((cpu_marks[k + 1] - cpu_marks[k] - client_us[k]) / ops);
    client.push_back(client_us[k] / ops);
    all.insert(all.end(), per_window[k].begin(), per_window[k].end());
  }
  m.latency_p50_us = median(p50s);
  m.latency_p90_us = median(p90s);
  m.p50s = p50s;
  m.p90s = p90s;
  m.rps = rps;
  m.cpu = cpu;
  m.throughput_rps = median(rps);
  m.cpu_us_per_op = median(cpu);
  m.client_us_per_op = median(client);
  m.samples = all.size();
  const Percentile p90 = percentile(all, 90);
  m.overall_p50_us = percentile(all, 50).value;
  m.overall_p90_us = p90.value;
  m.p90_beyond = p90.beyond;
  return m;
}

}  // namespace

WindowPair run_window(Stack& stack, double seconds, std::size_t sub_windows,
                      std::array<Tracer, kConnections>* tracers) {
  // Sample logs reserve their room before the clock starts, so no
  // reallocation lands in the window (up to kSamplesPerSecond per
  // connection). Reserved pages stay untouched until written, and by the
  // peak-RSS checkpoint only a fixed number of samples (about 1 MiB) are.
  std::array<std::vector<Sample>, kConnections> fresh;
  for (std::vector<Sample>& f : fresh)
    f.reserve(static_cast<std::size_t>(kSamplesPerSecond * seconds));
  // Peak RSS is read when the window completes a fixed number of
  // operations, so it measures the same work on a fast or a slow run.
  const std::uint64_t checkpoint = rss_checkpoint_ops(stack.workload());
  std::atomic<std::uint64_t> completed{0};
  double rss_at_checkpoint = 0.0;  // written once, read after the joins
  std::atomic<bool> stop{false};
  // With tracers, odd sub-windows are traced and even ones are not, so the
  // two halves see the same warm-up history and cache fill.
  std::atomic<bool> tracing{false};
  const Clock::time_point start = Clock::now();
  std::vector<double> cpu_marks{process_cpu_us()};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const std::uint64_t base_id = stack.log(c).samples.size();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t id =
            (static_cast<std::uint64_t>(c) << 32) | (base_id + fresh[c].size());
        const bool traced = tracing.load(std::memory_order_relaxed);
        Sample s = stack.step(c, traced ? &(*tracers)[c] : nullptr, id);
        s.end_s = std::chrono::duration<double>(Clock::now() - start).count();
        s.traced = traced;
        fresh[c].push_back(s);
        if (completed.fetch_add(1, std::memory_order_relaxed) + 1 == checkpoint)
          rss_at_checkpoint = peak_rss_mb();
        if (stack.transport_lost(c)) break;
      }
    });
  }
  // Sub-window edges as actually reached (sleep_until overshoots a little).
  const double slice = seconds / static_cast<double>(sub_windows);
  std::vector<double> edges{0.0};
  for (std::size_t k = 1; k <= sub_windows; ++k) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(slice * k)));
    cpu_marks.push_back(process_cpu_us());
    edges.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    tracing.store(tracers != nullptr && k % 2 == 1);
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  WindowPair out;
  out.rss_checkpoint_reached = rss_at_checkpoint > 0.0;
  out.peak_rss_mb = out.rss_checkpoint_reached ? rss_at_checkpoint : peak_rss_mb();

  // An operation counts in the sub-window it completed in, and only when
  // it also started under that sub-window's tracing setting.
  std::vector<std::vector<double>> plain(sub_windows), traced(sub_windows);
  std::vector<double> client_us(sub_windows, 0.0);
  for (unsigned c = 0; c < kConnections; ++c) {
    for (const Sample& s : fresh[c]) {
      ++out.attempted;
      if (s.failed) ++out.failed;
      const auto k = static_cast<std::size_t>(
          std::upper_bound(edges.begin(), edges.end(), s.end_s) - edges.begin()) - 1;
      if (k >= sub_windows) continue;
      client_us[k] += s.client_us;
      if (s.failed) continue;
      const bool traced_window = tracers != nullptr && k % 2 == 1;
      if (s.traced != traced_window) continue;
      (traced_window ? traced : plain)[k].push_back(s.rtt_us);
    }
    std::vector<Sample>& log = stack.log(c).samples;
    log.insert(log.end(), fresh[c].begin(), fresh[c].end());
  }
  out.plain = reduce(plain, edges, cpu_marks, client_us);
  out.traced = reduce(traced, edges, cpu_marks, client_us);
  return out;
}

std::vector<EmbedRequest> sample_requests(Stack& stack, unsigned c) {
  const std::vector<Sample>& samples = stack.log(c).samples;
  std::vector<EmbedRequest> out;
  out.reserve(samples.size());
  ChurnScript script(stack.seed(), c);
  if (stack.workload() == Workload::kChurnSession) {
    for (std::size_t k = 0; k < ChurnScript::kSetupSteps; ++k) script.setup_step(k);
  }
  for (const Sample& s : samples) {
    switch (stack.workload()) {
      case Workload::kHotReplay:
        out.push_back(stack.hot_pool()[s.request]);
        break;
      case Workload::kColdSweep:
        out.push_back(stack.log(c).requests[s.request]);
        break;
      case Workload::kChurnSession:
        script.next();
        out.push_back(script.state_request());
        break;
    }
  }
  return out;
}

namespace {

/// Reference answers for the stateless workloads, computed on every core.
std::vector<std::uint64_t> reference_hashes(const std::vector<EmbedRequest>& requests) {
  EmbedEngine engine;
  std::vector<std::uint64_t> out(requests.size());
  std::atomic<std::size_t> next{0};
  const unsigned workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < workers; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < requests.size();)
        out[i] = answer_hash(*engine.compute_uncached(requests[i]));
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

void note(GateResult& g, const std::string& what) {
  ++g.mismatches;
  if (g.first_problem.empty()) g.first_problem = what;
}

/// churn_session gate for connection c: replays its script through an
/// in-process session on an engine configured like the server's. Session
/// answers are a deterministic function of the mutation sequence (the
/// result cache only decides whether a solve is recomputed, never what it
/// returns), so each reply must match the replay bit for bit; every distinct
/// answer is also checked by the oracle. With `tracer` set, the first
/// traced steps (kReplayCap over all connections) record a span per step
/// and the reply codec spans, for pairing with the client's round trips.
GateResult replay_session(Stack& stack, unsigned c, Tracer* tracer) {
  GateResult g;
  EmbedEngine engine(engine_options(Workload::kChurnSession));
  const SessionSpec spec = churn_session_spec(c);
  ChurnScript script(stack.seed(), c);
  dbr::service::EmbedSession session(engine, spec.base, spec.n, spec.kind);
  std::unordered_set<std::uint64_t> oracle_seen;
  const auto check = [&](const Sample& s, const Mutation& scripted, Tracer* t,
                         std::uint64_t id) {
    const Mutation& logged = s.mutation;
    if (logged.add != scripted.add || logged.word != scripted.word ||
        logged.kind != scripted.kind) {
      note(g, "churn script diverged from the logged mutations");
      return;
    }
    const std::int64_t root = t ? t->begin("replay.step", id) : -1;
    const bool changed = scripted.add ? session.add_fault(scripted.kind, scripted.word)
                                      : session.clear_fault(scripted.kind, scripted.word);
    const dbr::service::EmbedResponse resp = session.current_ring();
    if (t) {
      g.reply_bytes.push_back(static_cast<double>(reply_roundtrip(resp, t, id, root)));
      t->end(root);
    }
    if (s.failed) return;  // already counted as a failed op
    ++g.checked;
    if (!changed) note(g, "replayed mutation did not change the session");
    const std::uint64_t h = answer_hash(*resp.result);
    if (h != s.hash) {
      note(g, "connection " + std::to_string(c) +
                  ": session reply differs from the in-process replay");
      return;
    }
    const EmbedRequest state = script.state_request();
    if (!oracle_seen.insert(request_key(state) ^ (h * 0x9e3779b97f4a7c15ull)).second) return;
    ++g.oracle_runs;
    const std::string v = session_violation(state, *resp.result);
    if (!v.empty()) note(g, "oracle rejected a session answer: " + v);
  };
  const std::vector<Sample>& setup = stack.log(c).setup;
  for (std::size_t k = 0; k < setup.size(); ++k) check(setup[k], script.setup_step(k), nullptr, 0);
  const std::vector<Sample>& samples = stack.log(c).samples;
  std::size_t spanned = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const bool span = tracer && samples[i].traced && spanned < kReplayCap / kConnections;
    spanned += span ? 1 : 0;
    check(samples[i], script.next(), span ? tracer : nullptr,
          (static_cast<std::uint64_t>(c) << 32) | i);
  }
  return g;
}

}  // namespace

GateResult run_gate(Stack& stack, Tracer* tracer) {
  GateResult g;
  const auto check_stateless = [&](const std::vector<std::uint64_t>& ref,
                                   const Sample& s, unsigned c) {
    if (s.failed) return;  // already counted as a failed op
    ++g.checked;
    if (s.hash != ref[s.request])
      note(g, "connection " + std::to_string(c) + " request " +
                  std::to_string(s.request) + ": ring differs from compute_uncached");
  };
  switch (stack.workload()) {
    case Workload::kHotReplay: {
      const std::vector<std::uint64_t> ref = reference_hashes(stack.hot_pool());
      for (unsigned c = 0; c < kConnections; ++c) {
        for (const Sample& s : stack.log(c).setup) check_stateless(ref, s, c);
        for (const Sample& s : stack.log(c).samples) check_stateless(ref, s, c);
      }
      break;
    }
    case Workload::kColdSweep:
      for (unsigned c = 0; c < kConnections; ++c) {
        const std::vector<std::uint64_t> ref = reference_hashes(stack.log(c).requests);
        for (const Sample& s : stack.log(c).setup) check_stateless(ref, s, c);
        for (const Sample& s : stack.log(c).samples) check_stateless(ref, s, c);
      }
      break;
    case Workload::kChurnSession: {
      // The connections' sessions are independent: replay them in parallel.
      std::array<GateResult, kConnections> parts;
      std::array<Tracer, kConnections> tracers;
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
          parts[c] = replay_session(stack, c, tracer ? &tracers[c] : nullptr);
        });
      }
      for (std::thread& t : threads) t.join();
      for (unsigned c = 0; c < kConnections; ++c) {
        const GateResult& p = parts[c];
        g.checked += p.checked;
        g.mismatches += p.mismatches;
        g.oracle_runs += p.oracle_runs;
        if (g.first_problem.empty()) g.first_problem = p.first_problem;
        g.reply_bytes.insert(g.reply_bytes.end(), p.reply_bytes.begin(), p.reply_bytes.end());
        if (tracer) tracer->append(tracers[c]);
      }
      break;
    }
  }
  return g;
}

}  // namespace perfbench
