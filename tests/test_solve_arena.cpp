#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/ffc.hpp"
#include "core/instance_context.hpp"
#include "core/mixed_fault.hpp"
#include "core/solve_scratch.hpp"
#include "ffc_reference.hpp"
#include "service/cache.hpp"
#include "service/context_cache.hpp"
#include "service/types.hpp"
#include "verify/scenario.hpp"

// Differential fuzz of the allocation-free solve path, plus hammer tests of
// the lock-free cache read paths.
//
// Part 1 sweeps the seeded scenario corpus (every strategy, so every fuzz
// regime from fault-free through mixed-correlated) and holds the
// scratch-arena solve bit-identical to the per-call-allocation reference
// solve of bench/ffc_reference.hpp, with ONE arena reused dirty across all
// scenarios and instance shapes — exactly the steady state a long-lived
// session or engine worker sees. Any stale-state
// leak between solves (an unreset epoch map, a mask sized for the previous
// instance) shows up as a field-level diff with the scenario's reproduction
// tuple attached.
//
// Part 2 hammers ShardedLruCache and ContextCache with concurrent readers
// against a mutating writer (put/clear). The readers' hit path takes no
// mutex, so these tests are the ThreadSanitizer surface for the RCU
// snapshots; value integrity is asserted from key-derived invariants.
//
// Knobs (env): DBR_FUZZ_SCENARIOS  scenarios per strategy (default 200)
//              DBR_FUZZ_SEED       base seed              (default 20260729)

namespace dbr {
namespace {

using core::FfcResult;
using core::InstanceContext;
using core::MixedResult;
using core::SolveScratch;
using service::CacheKey;
using service::ContextCache;
using service::EmbedResult;
using service::FaultKind;
using service::ShardedLruCache;
using service::Strategy;
using verify::Scenario;
using verify::make_sweep;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long long parsed = std::atoll(v);
    if (parsed > 0) return static_cast<std::uint64_t>(parsed);
  }
  return fallback;
}

std::size_t sweep_size() {
  return static_cast<std::size_t>(env_u64("DBR_FUZZ_SCENARIOS", 200));
}

std::uint64_t base_seed() { return env_u64("DBR_FUZZ_SEED", 20260729); }

constexpr Strategy kAllStrategies[] = {
    Strategy::kAuto,    Strategy::kFfc,       Strategy::kEdgeAuto,
    Strategy::kEdgeScan, Strategy::kEdgePhi,  Strategy::kButterfly,
    Strategy::kMixed};

/// Shared per-(base, n) contexts so the sweep pays each precompute once.
class ContextPool {
 public:
  const InstanceContext& get(Digit base, unsigned n) {
    const std::uint64_t key = (static_cast<std::uint64_t>(base) << 32) | n;
    auto it = contexts_.find(key);
    if (it == contexts_.end())
      it = contexts_.emplace(key, InstanceContext::make(base, n)).first;
    return *it->second;
  }

 private:
  std::unordered_map<std::uint64_t, std::shared_ptr<const InstanceContext>>
      contexts_;
};

/// Field-by-field identity of two FFC results (everything the reference
/// solve produces, intermediates included — not just the final ring).
void expect_identical(const FfcResult& a, const FfcResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.cycle.nodes, b.cycle.nodes) << what;
  EXPECT_EQ(a.root, b.root) << what;
  EXPECT_EQ(a.bstar_size, b.bstar_size) << what;
  EXPECT_EQ(a.root_eccentricity, b.root_eccentricity) << what;
  EXPECT_EQ(a.faulty_necklace_reps, b.faulty_necklace_reps) << what;
  EXPECT_EQ(a.faulty_node_count, b.faulty_node_count) << what;
  EXPECT_EQ(a.necklace_count, b.necklace_count) << what;
  EXPECT_EQ(a.tree_edges, b.tree_edges) << what;
  EXPECT_EQ(a.modified_edges, b.modified_edges) << what;
}

/// Runs a solve, mapping a thrown precondition/beyond-guarantee failure to
/// nullopt so both paths can be required to fail (or succeed) together.
template <typename Fn>
std::optional<FfcResult> try_solve(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// Every node-fault scenario of the corpus: the arena solve (one dirty,
// reused SolveScratch) must reproduce the reference allocation path bit for
// bit. Mixed scenarios run below; edge/butterfly constructions never enter
// the arena and are covered by test_fuzz_scenarios.
TEST(SolveArena, FfcBitIdentityAcrossScenarioCorpus) {
  ContextPool pool;
  SolveScratch scratch;  // reused dirty across all scenarios and shapes
  std::size_t compared = 0;
  for (const Strategy strategy : kAllStrategies) {
    for (const Scenario& sc : make_sweep(base_seed(), strategy, sweep_size())) {
      if (sc.request.fault_kind != FaultKind::kNode) continue;
      const InstanceContext& ctx = pool.get(sc.request.base, sc.request.n);
      const auto reference = try_solve(
          [&] { return ffc_reference::solve(ctx, sc.request.faults); });
      const auto arena = try_solve(
          [&] { return core::solve_ffc(ctx, sc.request.faults, scratch); });
      ASSERT_EQ(reference.has_value(), arena.has_value())
          << "FUZZ FAILURE " << sc.describe()
          << ": one path solved, the other threw";
      if (reference) {
        expect_identical(*reference, *arena,
                         "FUZZ FAILURE " + sc.describe());
        ++compared;
      }
    }
  }
  // The node-strategy sweeps alone guarantee a large comparable share.
  EXPECT_GT(compared, sweep_size() / 2);
}

// Mixed scenarios: the session path (reused dirty arena) must match a
// fresh-arena solve field for field. The embedded FFC retries inside
// solve_mixed exercise the arena's reset discipline hardest — each retry
// reuses the arena the failed attempt just dirtied.
TEST(SolveArena, MixedBitIdentityAcrossScenarioCorpus) {
  ContextPool pool;
  SolveScratch reused;
  std::size_t compared = 0;
  for (const Scenario& sc :
       make_sweep(base_seed(), Strategy::kMixed, sweep_size())) {
    const InstanceContext& ctx = pool.get(sc.request.base, sc.request.n);
    SolveScratch fresh;
    const MixedResult a = core::solve_mixed(ctx, sc.request.faults,
                                            sc.request.edge_faults, fresh);
    const MixedResult b = core::solve_mixed(ctx, sc.request.faults,
                                            sc.request.edge_faults, reused);
    const std::string what = "FUZZ FAILURE " + sc.describe();
    ASSERT_EQ(a.cycle.has_value(), b.cycle.has_value()) << what;
    if (a.cycle) {
      EXPECT_EQ(a.cycle->nodes, b.cycle->nodes) << what;
    }
    EXPECT_EQ(a.route, b.route) << what;
    EXPECT_EQ(a.pullback_node_faults, b.pullback_node_faults) << what;
    EXPECT_EQ(a.pulled_back, b.pulled_back) << what;
    ++compared;
  }
  EXPECT_EQ(compared, sweep_size());
}

CacheKey nth_key(std::uint64_t i) {
  CacheKey key;
  key.base = 2;
  key.n = 6;
  key.fault_kind = FaultKind::kNode;
  key.strategy = Strategy::kFfc;
  key.faults = {static_cast<Word>(i)};
  return key;
}

/// The key-derived invariant hammer readers verify on every hit.
std::shared_ptr<const EmbedResult> nth_value(std::uint64_t i) {
  auto value = std::make_shared<EmbedResult>();
  value->lower_bound = i;
  value->upper_bound = 3 * i + 1;
  return value;
}

// Readers spin lock-free gets against a writer doing put-refreshes and
// periodic clears. Every hit must return a coherent Entry (the value's
// key-derived invariant intact) even while the authoritative map is being
// rewritten and republished — this is the TSan surface for the result
// cache's RCU snapshot and the atomic recency ticks.
TEST(SolveArena, LruCacheHammerKeepsHitsCoherent) {
  constexpr std::uint64_t kKeys = 96;  // > capacity: eviction under fire
  constexpr std::uint64_t kPuts = 20000;
  ShardedLruCache cache(64, 4);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad_values{0};
  std::atomic<std::uint64_t> observed_hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t i = static_cast<std::uint64_t>(t);
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t k = (i++ * 2654435761u) % kKeys;
        if (const auto value = cache.get(nth_key(k))) {
          observed_hits.fetch_add(1, std::memory_order_relaxed);
          if (value->lower_bound != k || value->upper_bound != 3 * k + 1)
            bad_values.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::uint64_t p = 0; p < kPuts; ++p) {
    const std::uint64_t k = p % kKeys;
    cache.put(nth_key(k), nth_value(k));
    if (p % 4096 == 4095) cache.clear();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(bad_values.load(), 0u);
  EXPECT_GT(observed_hits.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());

  // Quiescent counter coherence: from a clean slate, every get is exactly
  // one hit or one miss and the totals add up.
  cache.clear();
  cache.put(nth_key(1), nth_value(1));
  ASSERT_NE(cache.get(nth_key(1)), nullptr);
  ASSERT_EQ(cache.get(nth_key(2)), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

// Same shape for the context cache: concurrent get_or_build over more
// shapes than the capacity admits (evictions) while a churn thread clears,
// so lock-free hits race builds, evictions and snapshot republication.
// Returned contexts must always be the right instance.
TEST(SolveArena, ContextCacheHammerKeepsHitsCoherent) {
  struct Shape {
    Digit base;
    unsigned n;
  };
  constexpr Shape kShapes[] = {{2, 4}, {2, 5}, {3, 3}, {2, 6}, {3, 4}};
  constexpr std::uint64_t kLookups = 4000;
  ContextCache cache(4);  // one fewer than the shapes: eviction under fire

  std::atomic<std::uint64_t> wrong_instance{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kLookups; ++i) {
        const Shape& shape =
            kShapes[(i * 2654435761u + static_cast<std::uint64_t>(t)) %
                    std::size(kShapes)];
        const auto ctx = cache.get_or_build(shape.base, shape.n);
        if (ctx == nullptr || ctx->base() != shape.base ||
            ctx->tuple_length() != shape.n)
          wrong_instance.fetch_add(1, std::memory_order_relaxed);
        if (t == 0 && i % 1024 == 1023) cache.clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong_instance.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());

  // Quiescent counter coherence, as above.
  cache.clear();
  bool hit = true;
  const auto first = cache.get_or_build(2, 5, &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get_or_build(2, 5, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first, second);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

}  // namespace
}  // namespace dbr
