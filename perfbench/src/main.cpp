// perfbench: the repository benchmark. Runs one seeded, closed-loop
// workload against an in-process net::Server on loopback, checks every
// reply, and prints one JSON line of metrics last.
//
//   perfbench --workload hot_replay|cold_sweep|churn_session --seed N
//             --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics of a traced run (see README.md). Result and span files go to
// .bench_out/. Exit status is nonzero when an operation fails (a transport
// error, a non-OK status, a mutation without effect, or a reply that fails
// the correctness gate) or the run cannot be made.

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>

#include "layers.hpp"
#include "load.hpp"
#include "service/cache.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

struct Args {
  Workload workload = Workload::kHotReplay;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
};

/// Where result and span files are written, relative to the working directory.
constexpr const char* kOutDir = ".bench_out";

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload hot_replay|cold_sweep|churn_session "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(64);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = parse_workload(v);
        if (!w) usage("unknown workload " + v);
        a.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = v == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds is required and must be positive");
  return a;
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string share_map(const std::map<std::string, std::uint64_t>& counts,
                      std::uint64_t total) {
  std::string out = "{";
  for (const auto& [k, v] : counts) {
    if (out.size() > 1) out += ",";
    out += "\"" + k + "\":" + num(static_cast<double>(v) / static_cast<double>(total));
  }
  return out + "}";
}

/// The request mix the measured window actually sent.
std::string request_mix(Stack& st, std::ostream& report) {
  std::map<std::string, std::uint64_t> by_strategy, by_instance;
  std::map<std::string, std::vector<double>> rtt_by_class;
  std::unordered_set<std::uint64_t> distinct;
  std::uint64_t total = 0, hits = 0, words = 0;
  for (unsigned c = 0; c < kConnections; ++c) {
    const std::vector<EmbedRequest> requests = sample_requests(st, c);
    const std::vector<Sample>& samples = st.log(c).samples;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      const EmbedRequest& r = requests[i];
      if (s.failed) continue;
      ++total;
      hits += s.cache_hit ? 1 : 0;
      words += s.reply_words;
      distinct.insert(request_key(r));
      const char* strategy = dbr::service::to_string(dbr::service::resolve_strategy(r));
      const std::string instance = "B(" + std::to_string(r.base) + "," + std::to_string(r.n) + ")";
      ++by_strategy[strategy];
      ++by_instance[instance];
      rtt_by_class[std::string(strategy) + " " + instance].push_back(s.rtt_us);
    }
  }
  if (total == 0) return "{}";
  const double hit_share = static_cast<double>(hits) / static_cast<double>(total);
  const double mean_words = static_cast<double>(words) / static_cast<double>(total);
  report << "request mix: " << total << " solves, " << distinct.size()
         << " distinct, result-cache-hit share " << hit_share
         << ", mean ring words per reply " << mean_words << "\n"
         << "  per strategy " << share_map(by_strategy, total) << "\n"
         << "  per instance " << share_map(by_instance, total) << "\n"
         << "  round trip by class (p50 / p90 us, samples):\n";
  for (const auto& [cls, v] : rtt_by_class) {
    report << "    " << cls << ": " << static_cast<int>(percentile(v, 50).value) << " / "
           << static_cast<int>(percentile(v, 90).value) << ", " << v.size() << "\n";
  }
  return "{\"solves\":" + std::to_string(total) +
         ",\"distinct\":" + std::to_string(distinct.size()) +
         ",\"cache_hit_share\":" + num(hit_share) +
         ",\"mean_ring_words\":" + num(mean_words) +
         ",\"per_strategy\":" + share_map(by_strategy, total) +
         ",\"per_instance\":" + share_map(by_instance, total) + "}";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (const Metric& m : ms) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

int run(const Args& a) {
  std::ostringstream report;
  const char* wname = workload_name(a.workload);
  report << "perfbench " << wname << " seed=" << a.seed << " seconds=" << a.seconds
         << " trace=" << a.trace << " connections=" << kConnections
         << " server_workers=" << kServerWorkers << "\n";
  // One-second sub-windows (at least six, so a traced run has three of each).
  const auto sub_windows = static_cast<std::size_t>(std::max(6.0, a.seconds));

  // Set-up: construction plus warm-up pass. The first stack is measured;
  // more set-ups are timed after the window, so peak RSS covers one set-up.
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    auto s = std::make_unique<Stack>(a.workload, a.seed);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    return s;
  };
  std::unique_ptr<Stack> stack = timed_setup();

  std::vector<Metric> metrics;
  WindowPair w;
  GateResult gate;
  if (!a.trace) {
    w = run_window(*stack, a.seconds, sub_windows, nullptr);
    gate = run_gate(*stack, nullptr);
    const WindowMetrics& m = w.plain;
    metrics = {{"latency_p50_us", m.latency_p50_us, "us"},
               {"latency_p90_us", m.latency_p90_us, "us"},
               {"throughput_rps", m.throughput_rps, "1/s"},
               {"cpu_us_per_op", m.cpu_us_per_op, "us"},
               {"peak_rss_mb", w.peak_rss_mb, "MiB"}};
    report << "measured " << m.samples << " ops in " << m.sub_windows
           << " sub-windows; pooled p50 " << m.overall_p50_us << " us, p90 "
           << m.overall_p90_us << " us (" << m.p90_beyond << " samples beyond p90)\n"
           << "load-generator work (request draw, reply hash) taken out of cpu/op: "
           << m.client_us_per_op << " us per op\n"
           << "peak RSS read after " << rss_checkpoint_ops(a.workload) << " operations"
           << (w.rss_checkpoint_reached ? "" : " (not reached: read at the window's end)")
           << "\n";
    const auto row = [&](const char* name, const std::vector<double>& v) {
      report << "sub-window " << name << ":";
      for (const double x : v) report << " " << static_cast<long>(x);
      report << "\n";
    };
    row("p50s (us)", m.p50s);
    row("p90s (us)", m.p90s);
    row("throughput (1/s)", m.rps);
    row("cpu per op (us)", m.cpu);
  } else {
    std::array<Tracer, kConnections> tcp;
    Tracer replay;
    LayerInputs in;
    in.window_before = stack->engine_stats();
    w = run_window(*stack, a.seconds, sub_windows, &tcp);
    in.stack = stack.get();
    in.tcp = &tcp;
    in.replay = &replay;
    in.window_after = stack->engine_stats();
    in.server = stack->server_stats();
    gate = run_gate(*stack, &replay);
    in.gate = &gate;
    const LayerReport layers = analyse_layers(in);
    metrics = layers.metrics;
    for (const std::string& line : layers.lines) report << line << "\n";
    const auto pct = [](double traced_v, double plain) {
      return plain == 0 ? 0.0 : 100.0 * (traced_v - plain) / plain;
    };
    const WindowMetrics& p = w.plain;
    const WindowMetrics& t = w.traced;
    report << "tracing overhead (traced vs untraced sub-windows, " << t.sub_windows
           << " vs " << p.sub_windows << "): p50 " << pct(t.latency_p50_us, p.latency_p50_us)
           << "%, p90 " << pct(t.latency_p90_us, p.latency_p90_us) << "%, throughput "
           << pct(t.throughput_rps, p.throughput_rps) << "%, cpu/op "
           << pct(t.cpu_us_per_op, p.cpu_us_per_op) << "%\n";
    std::filesystem::create_directories(kOutDir);
    const std::string spans = std::string(kOutDir) + "/spans-" + wname + "-seed" +
                              std::to_string(a.seed) + ".jsonl";
    // Client spans are kept for the operations the replay paired with.
    std::set<std::uint64_t> replayed;
    for (const Span& sp : replay.spans()) replayed.insert(sp.request);
    std::ofstream out(spans);
    tcp[0].write_jsonl(out, "tcp0", &replayed);
    tcp[1].write_jsonl(out, "tcp1", &replayed);
    replay.write_jsonl(out, "replay");
    const bool ok = static_cast<bool>(out);
    report << "spans file: " << spans << (ok ? "" : " (write failed)") << "\n";
  }
  const std::string mix = request_mix(*stack, report);
  for (unsigned c = 0; c < kConnections; ++c) {
    if (!stack->log(c).error.empty())
      report << "connection " << c << " first failure: " << stack->log(c).error << "\n";
  }
  stack.reset();
  if (!a.trace) {
    // At least kMinSetups set-ups, and more (up to kMaxSetups) until a
    // second of set-up has been timed, so a fast set-up still gets a steady
    // median.
    constexpr std::size_t kMinSetups = 5;
    constexpr std::size_t kMaxSetups = 25;
    double total = setup_s.front();
    while (setup_s.size() < kMinSetups || (total < 1.0 && setup_s.size() < kMaxSetups)) {
      timed_setup();
      total += setup_s.back();
    }
    metrics.push_back({"setup_s", median(setup_s), "s"});
    report << "setups: " << setup_s.size() << ", median " << median(setup_s) << " s, each";
    for (const double v : setup_s) report << " " << v;
    report << "\n";
  }

  report << "gate: " << gate.checked << " replies checked, " << gate.oracle_runs
         << " oracle runs, " << gate.mismatches << " mismatches"
         << (gate.first_problem.empty() ? "" : " (first: " + gate.first_problem + ")")
         << "\n";
  // Any failed operation fails the run: a failure dropped from the figures
  // must never read as a faster program.
  const std::uint64_t failed = w.failed + gate.mismatches;
  const bool correct = failed == 0;
  report << "failed operations: " << failed << " (" << w.failed << " in the window, "
         << gate.mismatches << " at the gate)\n";
  std::cout << report.str();
  for (const Metric& m : metrics)
    std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit << "\n";

  const std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(w.attempted) +
                           ", \"failed\": " + std::to_string(failed) +
                           ", \"metrics\": " + metrics_json(metrics) + "}";
  std::filesystem::create_directories(kOutDir);
  std::ofstream(std::string(kOutDir) + "/" + wname + "-seed" + std::to_string(a.seed) + "-trace" +
                (a.trace ? "1" : "0") + ".json")
      << "{\"workload\": \"" << wname << "\", \"seed\": " << a.seed
      << ", \"trace\": " << a.trace << ", \"mix\": " << mix << ", \"result\": " << line
      << "}\n";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
