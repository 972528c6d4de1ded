#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <unordered_set>

#include "codec.hpp"
#include "service/session.hpp"
#include "stats.hpp"

namespace perfbench {

using dbr::service::EmbedEngine;
using dbr::service::EmbedSession;
using dbr::service::ShardRouter;

namespace {

struct Replayed {
  EmbedRequest request;
  std::uint64_t id = 0;  ///< the traced TCP operation's request id
};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// The traced window's requests in stateless form: the requests themselves
/// for hot_replay and cold_sweep, the session state after each step for
/// churn_session.
std::vector<Replayed> traced_requests(const LayerInputs& in) {
  Stack& st = *in.stack;
  std::vector<Replayed> out;
  for (unsigned c = 0; c < kConnections; ++c) {
    const std::vector<Sample>& samples = st.log(c).samples;
    std::vector<EmbedRequest> requests = sample_requests(st, c);
    std::size_t taken = 0;
    for (std::size_t i = 0; i < samples.size() && taken < kReplayCap / kConnections; ++i) {
      if (!samples[i].traced || samples[i].failed) continue;
      ++taken;
      out.push_back({std::move(requests[i]), (static_cast<std::uint64_t>(c) << 32) | i});
    }
  }
  return out;
}

/// Warm-up requests of the replay stacks: the same pass the live set-up makes.
std::vector<EmbedRequest> warmup_requests(const Stack& st) {
  switch (st.workload()) {
    case Workload::kHotReplay:
      return st.hot_pool();
    case Workload::kColdSweep:
      return make_cold_warmup(st.seed());
    case Workload::kChurnSession:
      return {};
  }
  return {};
}

std::map<std::uint64_t, double> root_durations(const Tracer& t, const char* name) {
  std::map<std::uint64_t, double> out;
  for (const Span& s : t.spans()) {
    if (s.parent < 0 && std::string_view(s.name) == name)
      out[s.request] = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  return out;
}

struct FabricCounts {
  std::uint64_t queries = 0;
  std::uint64_t replica_reads = 0;
  std::uint64_t ctx_builds = 0;
  std::uint64_t result_hits = 0;
  std::uint64_t peak_shard_queries = 0;
  bool operator==(const FabricCounts&) const = default;
};

FabricCounts fabric_replay(const std::vector<EmbedRequest>& warm,
                           const std::vector<EmbedRequest>& requests) {
  dbr::service::FabricOptions fo;
  fo.shards = kFabricShards;
  ShardRouter router(fo);
  for (const EmbedRequest& r : warm) router.query(r);
  for (const EmbedRequest& r : requests) router.query(r);
  const dbr::service::FabricStats s = router.stats();
  FabricCounts f;
  f.queries = s.queries;
  f.replica_reads = s.replica_reads;
  for (const auto& shard : s.shards) {
    f.ctx_builds += shard.engine.contexts.misses;
    f.result_hits += shard.engine.serve.result_hits;
    f.peak_shard_queries = std::max(f.peak_shard_queries, shard.queries);
  }
  return f;
}

/// A seed-determined request sequence for the replays that produce counts
/// and for the layer probes: what each connection sends first in its window
/// (hot_replay's per-connection Zipf streams, churn_session's session state
/// after each step past set-up) or the start of the shared cold_sweep
/// stream. Unlike the traced requests it does not depend on timing, so
/// counts taken over it repeat exactly for a seed.
std::vector<EmbedRequest> seeded_requests(const Stack& st) {
  constexpr std::size_t kPerConnection = kReplayCap / kConnections;
  std::vector<EmbedRequest> out;
  switch (st.workload()) {
    case Workload::kHotReplay:
      for (unsigned c = 0; c < kConnections; ++c) {
        HotStream stream(st.seed(), c);
        for (std::size_t i = 0; i < kPerConnection; ++i)
          out.push_back(st.hot_pool()[stream.next()]);
      }
      break;
    case Workload::kColdSweep: {
      ColdStream stream(st.seed());
      for (std::size_t i = 0; i < kReplayCap; ++i) out.push_back(stream.next());
      break;
    }
    case Workload::kChurnSession:
      for (unsigned c = 0; c < kConnections; ++c) {
        ChurnScript script(st.seed(), c);
        for (std::size_t k = 0; k < ChurnScript::kSetupSteps; ++k) script.setup_step(k);
        for (std::size_t i = 0; i < kPerConnection; ++i) {
          script.next();
          out.push_back(script.state_request());
        }
      }
      break;
  }
  return out;
}

/// churn_session's session layer: replays each connection's set-up and its
/// first steps (the seeded prefix) through a fresh session, timing every
/// mutation and solve of the measured steps.
void churn_prefix(const Stack& st, Tracer& t, dbr::service::SessionStats* ss,
                  dbr::service::RepairStats* rs) {
  for (unsigned c = 0; c < kConnections; ++c) {
    EmbedEngine engine(engine_options(Workload::kChurnSession));
    const SessionSpec spec = churn_session_spec(c);
    EmbedSession session(engine, spec.base, spec.n, spec.kind);
    ChurnScript script(st.seed(), c);
    const auto apply = [&](const Mutation& m) {
      m.add ? session.add_fault(m.kind, m.word) : session.clear_fault(m.kind, m.word);
    };
    for (std::size_t k = 0; k < ChurnScript::kSetupSteps; ++k) {
      apply(script.setup_step(k));
      session.current_ring();
    }
    for (std::uint64_t i = 0; i < kReplayCap / kConnections; ++i) {
      const std::uint64_t id = (static_cast<std::uint64_t>(c) << 32) | i;
      const std::int64_t root = t.begin("replay.session", id);
      std::int64_t span = t.begin("session.mutate", id, root);
      apply(script.next());
      t.end(span);
      span = t.begin("session.solve", id, root);
      session.current_ring();
      t.end(span);
      t.end(root);
    }
    ss->solves += session.stats().solves;
    ss->memoized += session.stats().memoized;
    rs->spliced += session.repair_stats().spliced;
    rs->fell_back += session.repair_stats().fell_back;
  }
}

/// Walks the stateless requests through one EmbedSession per (instance,
/// kind, strategy): each request's fault set is reached from the previous
/// one by clear/add mutations, then solved.
void session_walk(const std::vector<EmbedRequest>& requests, Tracer& t,
                  dbr::service::SessionStats* ss, dbr::service::RepairStats* rs) {
  EmbedEngine engine(engine_options(Workload::kChurnSession));
  std::map<std::tuple<Digit, unsigned, int, int>, std::unique_ptr<EmbedSession>> sessions;
  for (std::uint64_t id = 0; id < requests.size(); ++id) {
    const EmbedRequest& req = requests[id];
    auto& slot = sessions[{req.base, req.n, static_cast<int>(req.fault_kind),
                           static_cast<int>(req.strategy)}];
    if (!slot)
      slot = std::make_unique<EmbedSession>(engine, req.base, req.n, req.fault_kind,
                                            req.strategy);
    EmbedSession& s = *slot;
    std::vector<Word> target = req.faults;
    std::sort(target.begin(), target.end());
    target.erase(std::unique(target.begin(), target.end()), target.end());
    const std::vector<Word> current = s.faults();
    const std::int64_t root = t.begin("replay.session", id);
    for (const Word w : current) {
      if (std::binary_search(target.begin(), target.end(), w)) continue;
      const std::int64_t span = t.begin("session.mutate", id, root);
      s.clear_fault(req.fault_kind, w);
      t.end(span);
    }
    for (const Word w : target) {
      if (std::binary_search(current.begin(), current.end(), w)) continue;
      const std::int64_t span = t.begin("session.mutate", id, root);
      s.add_fault(req.fault_kind, w);
      t.end(span);
    }
    const std::int64_t span = t.begin("session.solve", id, root);
    s.current_ring();
    t.end(span);
    t.end(root);
  }
  for (const auto& [key, s] : sessions) {
    ss->solves += s->stats().solves;
    ss->memoized += s->stats().memoized;
    rs->spliced += s->repair_stats().spliced;
    rs->fell_back += s->repair_stats().fell_back;
  }
}

}  // namespace

LayerReport analyse_layers(const LayerInputs& in) {
  Stack& st = *in.stack;
  Tracer& t = *in.replay;
  LayerReport rep;
  const auto add = [&](const std::string& name, double value, const char* unit) {
    rep.metrics.push_back({name, value, unit});
  };
  const std::vector<Replayed> q = traced_requests(in);
  const std::vector<EmbedRequest> seeded = seeded_requests(st);
  const std::vector<EmbedRequest> warm = warmup_requests(st);
  const bool churn = st.workload() == Workload::kChurnSession;

  // --- net codec, service serve, and the in-process chain per request. ----
  // The request codec as the client encodes and the server decodes a kSolve.
  const auto request_codec = [&](const Replayed& r, std::int64_t root) {
    std::int64_t span = t.begin("net.encode_request", r.id, root);
    const std::vector<std::uint8_t> frame =
        request_frame(r.request, static_cast<std::uint32_t>(r.id));
    t.end(span);
    span = t.begin("net.decode_request", r.id, root);
    EmbedRequest decoded;
    parse_request_frame(frame, &decoded);
    t.end(span);
    return decoded;
  };
  std::vector<double> reply_bytes;
  if (!churn) {
    std::unique_ptr<ShardRouter> router;
    std::unique_ptr<EmbedEngine> engine;
    if (st.workload() == Workload::kHotReplay) {
      dbr::service::FabricOptions fo;
      fo.shards = kFabricShards;
      router = std::make_unique<ShardRouter>(fo);
    } else {
      engine = std::make_unique<EmbedEngine>(engine_options(st.workload()));
    }
    for (const EmbedRequest& r : warm) router ? router->query(r) : engine->query(r);
    for (const Replayed& r : q) {
      const std::int64_t root = t.begin("replay.request", r.id);
      const EmbedRequest decoded = request_codec(r, root);
      const std::int64_t span = t.begin(router ? "fabric.serve" : "engine.serve", r.id, root);
      const dbr::service::EmbedResponse resp =
          router ? router->query(decoded) : engine->query(decoded);
      t.end(span);
      reply_bytes.push_back(static_cast<double>(reply_roundtrip(resp, &t, r.id, root)));
      t.end(root);
    }
  } else {
    // The gate replay timed the session answers and their reply codec; the
    // request codec is timed on each step's session state in kSolve form.
    for (const Replayed& r : q) {
      const std::int64_t root = t.begin("replay.codec", r.id);
      request_codec(r, root);
      t.end(root);
    }
    reply_bytes = in.gate->reply_bytes;
  }
  add("net.encode_request_us", median(t.durations("net.encode_request")), "us");
  add("net.decode_request_us", median(t.durations("net.decode_request")), "us");
  add("net.encode_reply_us", median(t.durations("net.encode_reply")), "us");
  add("net.decode_reply_us", median(t.durations("net.decode_reply")), "us");
  add("net.reply_bytes", mean(reply_bytes), "bytes");

  // Transport: the traced TCP round trip minus the same request's in-process
  // chain (codec + serve), paired by request id.
  std::vector<double> transport;
  {
    const char* tcp_root = churn ? "tcp.step" : "tcp.solve";
    const char* replay_root = churn ? "replay.step" : "replay.request";
    const std::map<std::uint64_t, double> local = root_durations(t, replay_root);
    for (unsigned c = 0; c < kConnections; ++c) {
      for (const auto& [id, tcp_us] : root_durations((*in.tcp)[c], tcp_root)) {
        const auto it = local.find(id);
        if (it != local.end()) transport.push_back(tcp_us - it->second);
      }
    }
  }
  add("net.transport_us", median(transport), "us");
  add("server.overloaded", static_cast<double>(in.server.overloaded), "count");
  add("server.timeouts", static_cast<double>(in.server.timeouts), "count");
  add("server.bad_frames", static_cast<double>(in.server.bad_frames), "count");

  // --- fabric: the same traffic through a fresh 4-shard router, twice. -----
  const FabricCounts f1 = fabric_replay(warm, seeded);
  const FabricCounts f2 = fabric_replay(warm, seeded);
  add("fabric.replica_read_share", ratio(f1.replica_reads, f1.queries), "ratio");
  add("fabric.ctx_builds", static_cast<double>(f1.ctx_builds), "count");
  add("fabric.result_hit_rate", ratio(f1.result_hits, f1.queries), "ratio");
  add("fabric.peak_load_share", ratio(f1.peak_shard_queries, f1.queries), "ratio");

  // --- engine, context cache and solve over the distinct requests. ---------
  std::vector<EmbedRequest> distinct;
  {
    std::unordered_set<std::uint64_t> seen;
    for (const EmbedRequest& r : seeded) {
      if (seen.insert(request_key(r)).second) distinct.push_back(r);
    }
  }
  EmbedEngine probe(dbr::service::EngineOptions{});
  std::set<std::tuple<Digit, unsigned, int>> warmed;
  std::set<std::pair<Digit, unsigned>> instances;
  for (const EmbedRequest& r : distinct) {
    instances.insert({r.base, r.n});
    if (warmed.insert({r.base, r.n, static_cast<int>(r.strategy)}).second)
      probe.compute_uncached(r);  // builds the context and its lazy sections
  }
  std::map<std::string, std::vector<double>> solve_by_strategy;
  std::vector<double> solve_all;
  for (const EmbedRequest& r : distinct) {
    const std::int64_t span = t.begin("solve", 0);
    const auto result = probe.compute_uncached(r);
    const double us = t.end(span);
    solve_by_strategy[to_string(result->strategy_used)].push_back(us);
    solve_all.push_back(us);
  }
  for (const EmbedRequest& r : distinct) {
    const std::int64_t span = t.begin("engine.miss", 0);
    probe.query(r);
    t.end(span);
  }
  for (const EmbedRequest& r : distinct) {
    const std::int64_t span = t.begin("engine.hit", 0);
    probe.query(r);
    t.end(span);
  }
  // Context build: the first query on a fresh engine builds the instance
  // context (and its lazy sections) before solving; the repeat solves warm.
  std::vector<double> ctx_build;
  {
    std::set<std::tuple<Digit, unsigned, int>> groups;
    for (const EmbedRequest& r : distinct) {
      if (!groups.insert({r.base, r.n, static_cast<int>(r.strategy)}).second) continue;
      EmbedEngine fresh(dbr::service::EngineOptions{});
      std::int64_t span = t.begin("ctx.cold_query", 0);
      fresh.compute_uncached(r);
      const double cold = t.end(span);
      span = t.begin("ctx.warm_query", 0);
      fresh.compute_uncached(r);
      ctx_build.push_back(cold - t.end(span));
    }
  }
  add("engine.hit_us", median(t.durations("engine.hit")), "us");
  add("engine.miss_us", median(t.durations("engine.miss")), "us");
  const auto& wb = in.window_before;
  const auto& wa = in.window_after;
  add("cache.hit_rate",
      ratio(wa.cache.hits - wb.cache.hits,
            (wa.cache.hits - wb.cache.hits) + (wa.cache.misses - wb.cache.misses)),
      "ratio");
  add("cache.evictions", static_cast<double>(wa.cache.evictions - wb.cache.evictions),
      "count");
  add("ctx.build_us", mean(ctx_build), "us");
  add("ctx.hit_rate", wa.contexts.hit_rate(), "ratio");
  add("ctx.builds", static_cast<double>(wa.contexts.misses), "count");
  add("solve.ffc_us", median(solve_by_strategy["ffc"]), "us");
  add("solve.all_us", median(solve_all), "us");

  // --- session + repair. ----------------------------------------------------
  dbr::service::SessionStats ss;
  dbr::service::RepairStats rs;
  if (churn) {
    churn_prefix(st, t, &ss, &rs);
  } else {
    session_walk(seeded, t, &ss, &rs);
  }
  add("session.mutate_us", median(t.durations("session.mutate")), "us");
  add("session.solve_us", median(t.durations("session.solve")), "us");
  add("repair.splice_share", ratio(rs.spliced, rs.spliced + ss.solves), "ratio");
  add("repair.fell_back", static_cast<double>(rs.fell_back), "count");
  add("session.memo_share", ratio(ss.memoized, ss.memoized + ss.solves + rs.spliced),
      "ratio");

  // --- human-readable detail. ----------------------------------------------
  rep.lines.push_back("replayed: " + std::to_string(q.size()) + " traced operations (" +
                      std::to_string(transport.size()) + " transport pairs); seeded prefix of " +
                      std::to_string(seeded.size()) + " requests (" +
                      std::to_string(distinct.size()) + " distinct, " +
                      std::to_string(instances.size()) + " instances)");
  for (const char* s : {"ffc", "edge_auto", "butterfly", "mixed"}) {
    const auto it = solve_by_strategy.find(s);
    if (it == solve_by_strategy.end() || it->second.empty()) continue;
    rep.lines.push_back(std::string("solve.") + (std::string(s) == "edge_auto" ? "edge" : s) +
                        "_us = " + fmt("%.2f", median(it->second)) + "  (n=" +
                        std::to_string(it->second.size()) + ")");
  }
  rep.lines.push_back("self time by span (replay):");
  for (const auto& [name, tot] : t.totals()) {
    rep.lines.push_back("  " + name + ": count=" + std::to_string(tot.count) +
                        " self_us/op=" + fmt("%.3f", tot.self_us / static_cast<double>(tot.count)) +
                        " total_us/op=" + fmt("%.3f", tot.total_us / static_cast<double>(tot.count)));
  }
  rep.lines.push_back(
      "stats deltas: fabric queries=" + std::to_string(f1.queries) +
      " replica_reads=" + std::to_string(f1.replica_reads) +
      " result_hits=" + std::to_string(f1.result_hits) +
      " peak_shard_queries=" + std::to_string(f1.peak_shard_queries) +
      "; live cache hits=" + std::to_string(wa.cache.hits - wb.cache.hits) +
      " misses=" + std::to_string(wa.cache.misses - wb.cache.misses) +
      "; live ctx hits=" + std::to_string(wa.contexts.hits) +
      " misses=" + std::to_string(wa.contexts.misses) +
      "; sessions solves=" + std::to_string(ss.solves) +
      " spliced=" + std::to_string(rs.spliced) + " memoized=" + std::to_string(ss.memoized));
  rep.lines.push_back(
      std::string("counters that repeat exactly for a seed (replays of the seeded prefix): ") +
      (f1 == f2 ? "fabric.* (two replays agreed), "
                : "none of fabric.* (WARNING: two replays disagreed), ") +
      "repair.splice_share, repair.fell_back, session.memo_share. They do not repeat: "
      "net.reply_bytes (traced operations, picked by timing) and the live counters "
      "cache.*, ctx.*, server.* (they depend on how much the window served)");
  return rep;
}

}  // namespace perfbench
