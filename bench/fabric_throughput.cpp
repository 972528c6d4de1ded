// Scaling and fail-stop recovery bench for the sharded multi-engine
// fabric (service/fabric): writes BENCH_fabric.json.
//
// Two sections:
//
//   scaling      the same skewed multi-instance stream (workload.hpp's
//                make_instance_stream) driven through fabrics of 1, 2, ...,
//                --shards shards with an EQUAL TOTAL worker count and a
//                fixed per-shard context cache. One shard cannot keep the
//                instance working set resident and thrashes on context
//                rebuilds (the dominant per-miss cost); N shards partition
//                the keyspace so each shard's arc fits — aggregate context
//                residency, not raw parallelism, is the scale-out story,
//                which is why the curve holds even on one core. Every
//                response is checked bit-identical to a single-engine
//                reference.
//
//   shard_kill   a fabric with validate_responses on serves the stream from
//                its worker pools while the main thread kills the most
//                loaded shard mid-batch (timing the remap = recovery) and
//                later revives it. Every answer — before, during, and after
//                the remap — must be bit-identical to the precomputed
//                single-engine reference and pass the in-fabric oracle; the
//                exit code is nonzero on any violation or mismatch.
//
// Knobs (env):   DBR_SEED
// Knobs (argv):  --shards N        max shard count, scaling doubles up to it
//                                  (default 4)
//                --requests N      requests per section        (default 400)
//                --instances N     (base, n) instance pool size (default 12)
//                --ctx-capacity N  per-shard context cache capacity (default 4)
//                --workers N       total fabric workers, split per shard
//                                  (default 4; must divide by each config)
//                --zipf S          instance Zipf skew          (default 0.6)
//                --repeat F        hot fault-set repeat fraction (default 0.15)
//                --edge-fraction F share of edge-fault solves on base >= 3
//                                  instances — the expensive-context regime
//                                  (default 0.7)
//                --out PATH        JSON path (default BENCH_fabric.json)

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "service/engine.hpp"
#include "service/fabric.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload.hpp"

namespace {

using dbr::Rng;
using dbr::bench::make_instance_pool;
using dbr::bench::make_instance_stream;
using dbr::service::EmbedEngine;
using dbr::service::EmbedRequest;
using dbr::service::EmbedResponse;
using dbr::service::EngineOptions;
using dbr::service::FabricOptions;
using dbr::service::FabricStats;
using dbr::service::ShardRouter;

using Clock = std::chrono::steady_clock;

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Single-engine ground truth for `stream`: a plain EmbedEngine with enough
/// context capacity to never thrash, queried sequentially. Deterministic,
/// so every fabric answer must match it bit for bit.
std::vector<std::shared_ptr<const dbr::service::EmbedResult>> reference_answers(
    const std::vector<EmbedRequest>& stream, std::size_t instances) {
  EngineOptions opts;
  opts.context_cache_capacity = instances + 1;
  EmbedEngine engine(opts);
  std::vector<std::shared_ptr<const dbr::service::EmbedResult>> out;
  out.reserve(stream.size());
  for (const EmbedRequest& req : stream) out.push_back(engine.query(req).result);
  return out;
}

std::uint64_t count_mismatches(
    const std::vector<EmbedResponse>& got,
    const std::vector<std::shared_ptr<const dbr::service::EmbedResult>>& want) {
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].result == nullptr || !got[i].result->same_embedding(*want[i]))
      ++mismatches;
  }
  return mismatches;
}

struct ScalingPoint {
  std::size_t shards = 0;
  std::size_t workers_per_shard = 0;
  double wall_micros = 0.0;
  std::uint64_t context_builds = 0;
  std::uint64_t context_hits = 0;
  std::uint64_t result_hits = 0;
  std::uint64_t mismatches = 0;

  double qps(std::size_t requests) const {
    return wall_micros > 0.0 ? static_cast<double>(requests) / (wall_micros / 1e6)
                             : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_shards = 4;
  std::size_t requests = 400;
  std::size_t instances = 12;
  std::size_t ctx_capacity = 4;
  std::size_t workers = 4;
  double zipf_s = 0.6;
  double repeat_fraction = 0.15;
  double edge_fraction = 0.7;
  std::string out_path = "BENCH_fabric.json";

  constexpr const char* kName = "fabric_throughput";
  constexpr const char* kSummary =
      "shard-scaling curve and mid-load shard-kill recovery of the service "
      "fabric; writes BENCH_fabric.json";
  const std::initializer_list<dbr::bench::UsageFlag> kFlags = {
      {"--shards N", "max shard count; scaling doubles 1..N (default 4)"},
      {"--requests N", "requests per section (default 400)"},
      {"--instances N", "(base, n) instance pool size (default 12)"},
      {"--ctx-capacity N", "per-shard context cache capacity (default 4)"},
      {"--workers N", "total fabric workers across shards (default 4)"},
      {"--zipf S", "instance Zipf skew (default 0.6)"},
      {"--repeat F", "hot fault-set repeat fraction (default 0.15)"},
      {"--edge-fraction F", "share of edge-fault solves (default 0.7)"},
      {"--out PATH", "JSON artifact path (default BENCH_fabric.json)"},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--shards") max_shards = std::strtoull(next(), nullptr, 10);
    else if (arg == "--requests") requests = std::strtoull(next(), nullptr, 10);
    else if (arg == "--instances") instances = std::strtoull(next(), nullptr, 10);
    else if (arg == "--ctx-capacity") ctx_capacity = std::strtoull(next(), nullptr, 10);
    else if (arg == "--workers") workers = std::strtoull(next(), nullptr, 10);
    else if (arg == "--zipf") zipf_s = std::strtod(next(), nullptr);
    else if (arg == "--repeat") repeat_fraction = std::strtod(next(), nullptr);
    else if (arg == "--edge-fraction") edge_fraction = std::strtod(next(), nullptr);
    else if (arg == "--out") out_path = next();
    else return dbr::bench::usage_exit(argv[i], kName, kSummary, kFlags);
  }
  if (max_shards == 0) max_shards = 1;
  if (workers == 0) workers = max_shards;
  instances = make_instance_pool(instances).size();  // clamp to the grid

  dbr::bench::heading("fabric throughput: shard scaling / recovery");
  std::cout << "shards<=" << max_shards << " requests/section=" << requests
            << " instances=" << instances << " ctx_capacity=" << ctx_capacity
            << " workers_total=" << workers << " zipf=" << zipf_s << "\n";

  Rng rng(dbr::bench::seed());
  const std::vector<EmbedRequest> stream = make_instance_stream(
      rng, requests, instances, zipf_s, repeat_fraction,
      /*hot_faults=*/8, /*fault_zipf_s=*/1.1, edge_fraction);
  const auto reference = reference_answers(stream, instances);

  // --- scaling --------------------------------------------------------------

  std::vector<ScalingPoint> curve;
  for (std::size_t shards = 1; shards <= max_shards; shards *= 2) {
    FabricOptions fopts;
    fopts.shards = shards;
    fopts.workers_per_shard = std::max<std::size_t>(1, workers / shards);
    fopts.engine.context_cache_capacity = ctx_capacity;
    ShardRouter fabric(fopts);

    const Clock::time_point t0 = Clock::now();
    const std::vector<EmbedResponse> responses = fabric.query_batch(stream);
    ScalingPoint point;
    point.wall_micros = micros_between(t0, Clock::now());
    point.shards = shards;
    point.workers_per_shard = fopts.workers_per_shard;
    point.mismatches = count_mismatches(responses, reference);
    const auto agg = fabric.aggregate_engine_stats();
    point.context_builds = agg.contexts.misses;
    point.context_hits = agg.contexts.hits;
    point.result_hits = agg.serve.result_hits;
    curve.push_back(point);
  }

  dbr::TextTable scaling_table({"shards", "workers/shard", "qps", "speedup",
                                "ctx_builds", "ctx_hits", "result_hits",
                                "mismatches"});
  const double base_qps = curve.front().qps(requests);
  for (const ScalingPoint& p : curve) {
    scaling_table.new_row()
        .add(p.shards)
        .add(p.workers_per_shard)
        .add(p.qps(requests), 1)
        .add(base_qps > 0 ? p.qps(requests) / base_qps : 0.0, 2)
        .add(p.context_builds)
        .add(p.context_hits)
        .add(p.result_hits)
        .add(p.mismatches);
  }
  dbr::bench::emit(scaling_table);
  const double speedup =
      base_qps > 0 ? curve.back().qps(requests) / base_qps : 0.0;

  // --- shard kill -----------------------------------------------------------

  FabricOptions kopts;
  kopts.shards = max_shards;
  kopts.workers_per_shard = std::max<std::size_t>(1, workers / max_shards);
  kopts.engine.context_cache_capacity = ctx_capacity;
  kopts.engine.validate_responses = true;  // in-fabric oracle on every answer
  ShardRouter kill_fabric(kopts);
  // The most popular instance is rank 0 of the pool; killing its owner
  // forces the hottest arc through a remap under load.
  const auto pool = make_instance_pool(instances);
  const dbr::service::ShardId victim =
      kill_fabric.owner_of(pool.front().base, pool.front().n);

  std::vector<EmbedResponse> kill_responses;
  std::atomic<bool> batch_done{false};
  const Clock::time_point kill_t0 = Clock::now();
  std::thread load([&] {
    kill_responses = kill_fabric.query_batch(stream);
    batch_done.store(true);
  });
  // Wait until the fabric is visibly mid-batch, then fail-stop the victim.
  const auto served = [&] {
    return kill_fabric.aggregate_engine_stats().serve.queries;
  };
  while (!batch_done.load() && served() < requests / 4)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Clock::time_point t0 = Clock::now();
  kill_fabric.kill_shard(victim);
  const double recovery_ms = micros_between(t0, Clock::now()) / 1000.0;
  while (!batch_done.load() && served() < (3 * requests) / 5)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  t0 = Clock::now();
  kill_fabric.revive_shard(victim);
  const double revive_ms = micros_between(t0, Clock::now()) / 1000.0;
  load.join();
  const double kill_wall_micros = micros_between(kill_t0, Clock::now());

  const std::uint64_t kill_mismatches =
      count_mismatches(kill_responses, reference);
  const FabricStats kill_stats = kill_fabric.stats();
  const auto kill_agg = kill_fabric.aggregate_engine_stats();

  dbr::TextTable kill_table({"victim", "recovery_ms", "revive_ms",
                             "remapped_keys", "remap_rounds", "oracle_checked",
                             "violations", "mismatches"});
  kill_table.new_row()
      .add(victim)
      .add(recovery_ms, 2)
      .add(revive_ms, 2)
      .add(kill_stats.remapped_keys)
      .add(kill_stats.remap_cost.total_rounds())
      .add(kill_agg.validation.checked)
      .add(kill_agg.validation.violations)
      .add(kill_mismatches);
  dbr::bench::emit(kill_table);

  // --- JSON artifact --------------------------------------------------------

  std::uint64_t scaling_mismatches = 0;
  for (const ScalingPoint& p : curve) scaling_mismatches += p.mismatches;

  dbr::bench::JsonWriter json;
  json.begin_object()
      .field("bench", "fabric_throughput")
      .field("seed", dbr::bench::seed());
  json.key("config")
      .begin_object()
      .field("max_shards", static_cast<std::uint64_t>(max_shards))
      .field("requests_per_section", static_cast<std::uint64_t>(requests))
      .field("instances", static_cast<std::uint64_t>(instances))
      .field("ctx_capacity_per_shard", static_cast<std::uint64_t>(ctx_capacity))
      .field("workers_total", static_cast<std::uint64_t>(workers))
      .field("instance_zipf_s", zipf_s)
      .field("repeat_fraction", repeat_fraction)
      .field("edge_fraction", edge_fraction)
      .end_object();
  json.key("scaling").begin_object().key("configs").begin_array();
  for (const ScalingPoint& p : curve) {
    json.begin_object()
        .field("shards", static_cast<std::uint64_t>(p.shards))
        .field("workers_per_shard", static_cast<std::uint64_t>(p.workers_per_shard))
        .field("throughput_qps", p.qps(requests))
        .field("wall_micros", p.wall_micros)
        .field("context_builds", p.context_builds)
        .field("context_hits", p.context_hits)
        .field("result_hits", p.result_hits)
        .field("mismatches", p.mismatches)
        .end_object();
  }
  json.end_array()
      .field("speedup_max_vs_1", speedup)
      .field("mismatches", scaling_mismatches)
      .end_object();
  json.key("shard_kill")
      .begin_object()
      .field("victim", static_cast<std::uint64_t>(victim))
      .field("recovery_ms", recovery_ms)
      .field("revive_ms", revive_ms)
      .field("wall_micros", kill_wall_micros)
      .field("responses", static_cast<std::uint64_t>(kill_responses.size()))
      .field("oracle_checked", kill_agg.validation.checked)
      .field("oracle_violations", kill_agg.validation.violations)
      .field("mismatches", kill_mismatches)
      .key("remap")
      .begin_object()
      .field("events", kill_stats.remap_events)
      .field("remapped_keys", kill_stats.remapped_keys)
      .field("rounds", kill_stats.remap_cost.total_rounds())
      .field("messages", kill_stats.remap_cost.messages)
      .end_object()
      .end_object();
  json.key("acceptance")
      .begin_object()
      .field("speedup_target", 2.5)
      .field("speedup", speedup)
      .field("speedup_pass", speedup >= 2.5)
      .field("correct", scaling_mismatches == 0 && kill_mismatches == 0 &&
                            kill_agg.validation.violations == 0)
      .end_object();
  json.end_object();

  if (!json.write_file(out_path)) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";

  if (scaling_mismatches > 0 || kill_mismatches > 0) {
    std::cerr << "bit-identity violated: scaling=" << scaling_mismatches
              << " shard_kill=" << kill_mismatches << "\n";
    return 1;
  }
  if (kill_agg.validation.violations > 0) {
    std::cerr << "oracle violations: " << kill_agg.validation.violations << "\n";
    return 1;
  }
  return 0;
}
