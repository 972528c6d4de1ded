#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/ffc.hpp"
#include "butterfly/butterfly.hpp"
#include "butterfly/lift.hpp"
#include "debruijn/cycle.hpp"
#include "debruijn/debruijn.hpp"
#include "service/cache.hpp"
#include "service/engine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dbr::service {
namespace {

std::shared_ptr<const EmbedResult> make_result(std::uint64_t tag) {
  auto r = std::make_shared<EmbedResult>();
  r->ring_length = tag;
  return r;
}

EmbedRequest node_request(Digit d, unsigned n, std::vector<Word> faults,
                          Strategy strategy = Strategy::kAuto) {
  EmbedRequest req;
  req.base = d;
  req.n = n;
  req.fault_kind = FaultKind::kNode;
  req.faults = std::move(faults);
  req.strategy = strategy;
  return req;
}

EmbedRequest edge_request(Digit d, unsigned n, std::vector<Word> faults,
                          Strategy strategy = Strategy::kAuto) {
  EmbedRequest req;
  req.base = d;
  req.n = n;
  req.fault_kind = FaultKind::kEdge;
  req.faults = std::move(faults);
  req.strategy = strategy;
  return req;
}

// --------------------------------------------------------------------------
// Fault-set canonicalization.

TEST(CanonicalKeyTest, FaultOrderAndRepeatsDoNotMatter) {
  const CacheKey a = canonical_key(node_request(3, 4, {7, 3, 11}));
  const CacheKey b = canonical_key(node_request(3, 4, {11, 7, 3}));
  const CacheKey c = canonical_key(node_request(3, 4, {3, 3, 11, 7, 7}));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(CacheKeyHash()(a), CacheKeyHash()(b));
  EXPECT_EQ(a.faults, (std::vector<Word>{3, 7, 11}));
}

TEST(CanonicalKeyTest, DistinctInstancesGetDistinctKeys) {
  const CacheKey base = canonical_key(node_request(3, 4, {7, 3}));
  EXPECT_NE(base, canonical_key(node_request(3, 4, {7, 4})));
  EXPECT_NE(base, canonical_key(node_request(3, 5, {7, 3})));
  EXPECT_NE(base, canonical_key(node_request(2, 4, {7, 3})));
  EXPECT_NE(base, canonical_key(edge_request(3, 4, {7, 3})));
}

TEST(CanonicalKeyTest, AutoResolvesByFaultKind) {
  EXPECT_EQ(canonical_key(node_request(3, 4, {1})).strategy, Strategy::kFfc);
  EXPECT_EQ(canonical_key(edge_request(3, 4, {1})).strategy, Strategy::kEdgeAuto);
  // An explicit strategy and the kAuto that resolves to it share a key.
  EXPECT_EQ(canonical_key(node_request(3, 4, {1})),
            canonical_key(node_request(3, 4, {1}, Strategy::kFfc)));
}

// --------------------------------------------------------------------------
// Sharded LRU cache.

TEST(ShardedLruCacheTest, HitMissAndStats) {
  ShardedLruCache cache(/*capacity=*/8, /*shard_count=*/4);
  const CacheKey key = canonical_key(node_request(2, 5, {1, 2}));
  EXPECT_EQ(cache.get(key), nullptr);
  const auto value = make_result(42);
  cache.put(key, value);
  EXPECT_EQ(cache.get(key), value);
  EXPECT_EQ(cache.size(), 1u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsed) {
  // One shard makes the LRU order deterministic.
  ShardedLruCache cache(/*capacity=*/2, /*shard_count=*/1);
  const CacheKey a = canonical_key(node_request(2, 5, {1}));
  const CacheKey b = canonical_key(node_request(2, 5, {2}));
  const CacheKey c = canonical_key(node_request(2, 5, {3}));
  cache.put(a, make_result(1));
  cache.put(b, make_result(2));
  ASSERT_NE(cache.get(a), nullptr);  // refresh a; b becomes LRU
  cache.put(c, make_result(3));      // evicts b
  EXPECT_EQ(cache.get(b), nullptr);
  EXPECT_NE(cache.get(a), nullptr);
  EXPECT_NE(cache.get(c), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLruCacheTest, CapacitySplitsAcrossShards) {
  ShardedLruCache cache(/*capacity=*/64, /*shard_count=*/8);
  EXPECT_EQ(cache.shard_count(), 8u);
  for (Word f = 0; f < 32; ++f)
    cache.put(canonical_key(node_request(2, 6, {f})), make_result(f));
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(cache.size(), 0u);
}

// --------------------------------------------------------------------------
// Engine: caching behavior.

TEST(EmbedEngineTest, SecondQueryIsACacheHitWithTheSameResultObject) {
  EmbedEngine engine;
  const EmbedRequest req = node_request(3, 3, {5, 14});
  const EmbedResponse first = engine.query(req);
  const EmbedResponse second = engine.query(req);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.result, second.result);  // shared, not recomputed
  EXPECT_EQ(engine.cache_stats().hits, 1u);
}

TEST(EmbedEngineTest, PermutedFaultSetHitsTheSameEntry) {
  EmbedEngine engine;
  const EmbedResponse first = engine.query(node_request(3, 3, {5, 14, 9}));
  const EmbedResponse second = engine.query(node_request(3, 3, {9, 5, 14, 5}));
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.result, second.result);
}

TEST(EmbedEngineTest, CachedResponseIsBitIdenticalToUncached) {
  const std::vector<EmbedRequest> scenarios = {
      node_request(3, 3, {5, 14}),
      node_request(2, 7, {3}),
      edge_request(4, 4, {17, 200}),
      edge_request(3, 5, {7}, Strategy::kEdgeScan),
      edge_request(3, 5, {7}, Strategy::kEdgePhi),
      edge_request(3, 4, {25}, Strategy::kButterfly),
  };
  for (const EmbedRequest& req : scenarios) {
    EmbedEngine engine;
    engine.query(req);                                // populate
    const EmbedResponse cached = engine.query(req);   // served from cache
    ASSERT_TRUE(cached.cache_hit);
    EmbedEngine cold(EngineOptions{.enable_cache = false});
    const auto baseline = cold.compute_uncached(req);
    EXPECT_TRUE(cached.result->same_embedding(*baseline))
        << "strategy " << to_string(req.strategy);
  }
}

TEST(EmbedEngineTest, DisabledCacheNeverHits) {
  EmbedEngine engine(EngineOptions{.enable_cache = false});
  const EmbedRequest req = node_request(3, 3, {5});
  EXPECT_FALSE(engine.query(req).cache_hit);
  EXPECT_FALSE(engine.query(req).cache_hit);
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(EmbedEngineTest, EvictionForcesRecompute) {
  EngineOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;
  EmbedEngine engine(options);
  const EmbedRequest a = node_request(3, 3, {1});
  const EmbedRequest b = node_request(3, 3, {2});
  const EmbedRequest c = node_request(3, 3, {4});
  engine.query(a);
  engine.query(b);
  engine.query(c);                            // evicts a
  EXPECT_FALSE(engine.query(a).cache_hit);    // recomputed
  EXPECT_GE(engine.cache_stats().evictions, 1u);
}

// --------------------------------------------------------------------------
// Engine: strategy dispatch.

TEST(EmbedEngineTest, NodeFaultsDispatchToFfc) {
  EmbedEngine engine;
  const WordSpace ws(3, 3);
  const std::vector<Word> faults = {ws.from_digits(std::vector<Digit>{0, 2, 0}),
                                    ws.from_digits(std::vector<Digit>{1, 1, 2})};
  const EmbedResponse resp = engine.query(node_request(3, 3, faults));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.result->strategy_used, Strategy::kFfc);
  // Example 2.1: B* has 21 nodes and the ring is exactly the FFC cycle.
  EXPECT_EQ(resp.result->ring_length, 21u);
  const auto ctx = core::InstanceContext::make(3, 3);
  EXPECT_EQ(resp.result->ring, core::solve_ffc(*ctx, faults).cycle);
  EXPECT_TRUE(is_cycle(ws, resp.result->ring));
  // Bounds: f = 2 > d - 2 = 1, so the guarantee degrades to [0, 25].
  EXPECT_EQ(resp.result->lower_bound, 0u);
  EXPECT_EQ(resp.result->upper_bound, 25u);
  EXPECT_GE(resp.result->ring_length, resp.result->lower_bound);
  EXPECT_LE(resp.result->ring_length, resp.result->upper_bound);
}

TEST(EmbedEngineTest, SingleNodeFaultBinaryBoundsMatchProposition23) {
  EmbedEngine engine;
  const EmbedResponse resp = engine.query(node_request(2, 7, {5}));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.result->lower_bound, 128u - 8u);  // 2^n - (n+1)
  EXPECT_EQ(resp.result->upper_bound, 127u);
  EXPECT_GE(resp.result->ring_length, resp.result->lower_bound);
  EXPECT_LE(resp.result->ring_length, resp.result->upper_bound);
}

TEST(EmbedEngineTest, EdgeFaultsProduceAFaultAvoidingHamiltonianCycle) {
  EmbedEngine engine;
  const std::vector<Word> faults = {17, 200, 301};
  const EmbedResponse resp = engine.query(edge_request(4, 4, faults));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.result->strategy_used, Strategy::kEdgeAuto);
  const WordSpace ws(4, 4);
  EXPECT_TRUE(is_hamiltonian(ws, resp.result->ring));
  const std::vector<Word> used = edge_words(ws, resp.result->ring);
  for (Word f : faults)
    EXPECT_EQ(std::count(used.begin(), used.end(), f), 0) << "uses fault " << f;
  EXPECT_EQ(resp.result->lower_bound, ws.size());
  EXPECT_EQ(resp.result->upper_bound, ws.size());
}

TEST(EmbedEngineTest, ExplicitScanAndPhiStrategiesBothEmbed) {
  // psi(3) = 1: the scan family has one cycle, so the fault must avoid it.
  // Find a non-loop edge word outside the clean scan cycle; both strategies
  // must then survive it (phi(3) = 1 covers any single fault).
  const WordSpace ws(3, 5);
  EmbedEngine probe;
  const EmbedResponse clean = probe.query(edge_request(3, 5, {}, Strategy::kEdgeScan));
  ASSERT_TRUE(clean.ok());
  const std::vector<Word> clean_edges = edge_words(ws, clean.result->ring);
  Word fault = 0;
  const WordSpace edge_ws(3, 6);
  for (Word e = 0; e < ws.edge_word_count(); ++e) {
    const bool loop = edge_ws.period(e) == 1;
    if (!loop && std::count(clean_edges.begin(), clean_edges.end(), e) == 0) {
      fault = e;
      break;
    }
  }
  for (const Strategy strategy : {Strategy::kEdgeScan, Strategy::kEdgePhi}) {
    EmbedEngine engine;
    const EmbedResponse resp = engine.query(edge_request(3, 5, {fault}, strategy));
    ASSERT_TRUE(resp.ok()) << to_string(strategy);
    EXPECT_EQ(resp.result->strategy_used, strategy);
    EXPECT_TRUE(is_hamiltonian(ws, resp.result->ring));
    const std::vector<Word> used = edge_words(ws, resp.result->ring);
    EXPECT_EQ(std::count(used.begin(), used.end(), fault), 0);
  }
}

TEST(EmbedEngineTest, ButterflyStrategyLiftsToAButterflyHamiltonianCycle) {
  EmbedEngine engine;
  const EmbedResponse resp =
      engine.query(edge_request(3, 4, {25}, Strategy::kButterfly));
  ASSERT_TRUE(resp.ok());
  const ButterflyDigraph bf(3, 4);
  EXPECT_EQ(resp.result->ring_length, 4u * 81u);  // n * d^n = |F(3,4)|
  EXPECT_TRUE(butterfly::is_butterfly_cycle(bf, resp.result->ring.nodes));
}

TEST(EmbedEngineTest, ScanBeyondItsGuaranteeReportsNoEmbedding) {
  // psi(2) = 1: the scan family for B(2,n) has a single Hamiltonian cycle,
  // so a fault on one of its edges exhausts the scan.
  EmbedEngine engine;
  const EmbedResponse clean =
      engine.query(edge_request(2, 4, {}, Strategy::kEdgeScan));
  ASSERT_TRUE(clean.ok());
  const WordSpace ws(2, 4);
  const Word blocking = edge_words(ws, clean.result->ring).front();
  const EmbedResponse resp =
      engine.query(edge_request(2, 4, {blocking}, Strategy::kEdgeScan));
  EXPECT_EQ(resp.result->status, EmbedStatus::kNoEmbedding);
  EXPECT_TRUE(resp.result->ring.nodes.empty());
  EXPECT_FALSE(resp.result->error.empty());
}

TEST(EmbedEngineTest, InvalidRequestsReportBadRequest) {
  EmbedEngine engine;
  // Strategy/fault-kind mismatches.
  EXPECT_EQ(engine.query(edge_request(3, 3, {1}, Strategy::kFfc)).result->status,
            EmbedStatus::kBadRequest);
  EXPECT_EQ(engine.query(node_request(3, 3, {1}, Strategy::kEdgeScan)).result->status,
            EmbedStatus::kBadRequest);
  // Butterfly lift needs gcd(d, n) = 1.
  EXPECT_EQ(engine.query(edge_request(2, 4, {1}, Strategy::kButterfly)).result->status,
            EmbedStatus::kBadRequest);
  // Fault word out of range.
  EXPECT_EQ(engine.query(node_request(2, 3, {8})).result->status,
            EmbedStatus::kBadRequest);
  // Bad requests are not cached.
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

// --------------------------------------------------------------------------
// Engine: fail-fast precondition rejections. Each documented precondition
// must yield kBadRequest with a message naming it, never a computation.

TEST(EmbedEngineTest, ButterflyGcdPreconditionNamesGcd) {
  EmbedEngine engine;
  for (const auto& [d, n] : {std::pair<Digit, unsigned>{2, 4}, {3, 6}, {4, 4}}) {
    const EmbedResponse resp =
        engine.query(edge_request(d, n, {1}, Strategy::kButterfly));
    ASSERT_EQ(resp.result->status, EmbedStatus::kBadRequest)
        << "d=" << d << " n=" << n;
    EXPECT_NE(resp.result->error.find("gcd(d, n) = 1"), std::string::npos)
        << resp.result->error;
    EXPECT_TRUE(resp.result->ring.nodes.empty());
  }
}

TEST(EmbedEngineTest, EdgeFaultRequestsRequireNAtLeastTwo) {
  EmbedEngine engine;
  for (const Strategy strategy :
       {Strategy::kAuto, Strategy::kEdgeAuto, Strategy::kEdgeScan,
        Strategy::kEdgePhi, Strategy::kButterfly}) {
    // gcd(3, 1) = 1, so for kButterfly it is specifically the n >= 2
    // precondition that must fire.
    const EmbedResponse resp = engine.query(edge_request(3, 1, {2}, strategy));
    ASSERT_EQ(resp.result->status, EmbedStatus::kBadRequest)
        << to_string(strategy);
    EXPECT_NE(resp.result->error.find("n >= 2"), std::string::npos)
        << to_string(strategy) << ": " << resp.result->error;
  }
  // Node faults have no such restriction at the engine layer.
  EXPECT_NE(engine.query(node_request(3, 3, {1})).result->status,
            EmbedStatus::kBadRequest);
}

TEST(EmbedEngineTest, FaultWordRangeRejectionNamesTheWord) {
  EmbedEngine engine;
  // Node words of B(2,3) live in [0, 8); edge words in [0, 16).
  const EmbedResponse node_resp = engine.query(node_request(2, 3, {3, 8}));
  ASSERT_EQ(node_resp.result->status, EmbedStatus::kBadRequest);
  EXPECT_NE(node_resp.result->error.find("fault word 8 out of range"),
            std::string::npos)
      << node_resp.result->error;

  const EmbedResponse edge_resp = engine.query(edge_request(2, 3, {16}));
  ASSERT_EQ(edge_resp.result->status, EmbedStatus::kBadRequest);
  EXPECT_NE(edge_resp.result->error.find("fault word 16 out of range"),
            std::string::npos)
      << edge_resp.result->error;
  // The largest in-range edge word is accepted.
  EXPECT_NE(engine.query(edge_request(2, 3, {15})).result->status,
            EmbedStatus::kBadRequest);
}

// --------------------------------------------------------------------------
// Engine: kAuto dispatch routes by fault kind and matches the explicit
// strategies bit for bit.

TEST(EmbedEngineTest, AutoDispatchMatchesExplicitStrategies) {
  EmbedEngine engine;
  const std::vector<Word> node_faults = {7, 33};
  const EmbedResponse auto_node = engine.query(node_request(3, 4, node_faults));
  ASSERT_TRUE(auto_node.ok());
  EXPECT_EQ(auto_node.result->strategy_used, Strategy::kFfc);
  EmbedEngine explicit_node_engine;
  const EmbedResponse explicit_node = explicit_node_engine.query(
      node_request(3, 4, node_faults, Strategy::kFfc));
  EXPECT_EQ(explicit_node.result->strategy_used, Strategy::kFfc);
  EXPECT_TRUE(auto_node.result->same_embedding(*explicit_node.result));

  const std::vector<Word> edge_faults = {25, 100};
  const EmbedResponse auto_edge = engine.query(edge_request(3, 4, edge_faults));
  ASSERT_TRUE(auto_edge.ok());
  EXPECT_EQ(auto_edge.result->strategy_used, Strategy::kEdgeAuto);
  EmbedEngine explicit_edge_engine;
  const EmbedResponse explicit_edge = explicit_edge_engine.query(
      edge_request(3, 4, edge_faults, Strategy::kEdgeAuto));
  EXPECT_EQ(explicit_edge.result->strategy_used, Strategy::kEdgeAuto);
  EXPECT_TRUE(auto_edge.result->same_embedding(*explicit_edge.result));

  // kAuto and its resolution share one cache entry.
  EXPECT_TRUE(engine.query(node_request(3, 4, node_faults, Strategy::kFfc)).cache_hit);
  EXPECT_TRUE(engine.query(edge_request(3, 4, edge_faults, Strategy::kEdgeAuto)).cache_hit);
}

// --------------------------------------------------------------------------
// Engine: fault-set canonicalization, one test per FaultKind.

TEST(EmbedEngineTest, NodeFaultCanonicalizationCollapsesPresentations) {
  EmbedEngine engine;
  const EmbedResponse first = engine.query(node_request(3, 4, {7, 33, 12}));
  const EmbedResponse permuted = engine.query(node_request(3, 4, {12, 7, 33}));
  const EmbedResponse duplicated =
      engine.query(node_request(3, 4, {33, 33, 12, 7, 7, 12}));
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(permuted.cache_hit);
  EXPECT_TRUE(duplicated.cache_hit);
  EXPECT_TRUE(first.result->same_embedding(*permuted.result));
  EXPECT_TRUE(first.result->same_embedding(*duplicated.result));
}

TEST(EmbedEngineTest, EdgeFaultCanonicalizationCollapsesPresentations) {
  EmbedEngine engine;
  const EmbedResponse first = engine.query(edge_request(3, 4, {25, 100, 7}));
  const EmbedResponse permuted = engine.query(edge_request(3, 4, {100, 7, 25}));
  const EmbedResponse duplicated =
      engine.query(edge_request(3, 4, {7, 25, 25, 100, 7}));
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(permuted.cache_hit);
  EXPECT_TRUE(duplicated.cache_hit);
  EXPECT_TRUE(first.result->same_embedding(*permuted.result));
  EXPECT_TRUE(first.result->same_embedding(*duplicated.result));
}

// --------------------------------------------------------------------------
// Engine: validate_responses debug mode.

TEST(EmbedEngineTest, ValidateResponsesChecksMissesAndSkipsHits) {
  EngineOptions options;
  options.validate_responses = true;
  EmbedEngine engine(options);
  const EmbedRequest requests[] = {
      node_request(3, 3, {5, 14}),
      edge_request(4, 4, {17}),
      edge_request(3, 4, {25}, Strategy::kButterfly),
  };
  for (const EmbedRequest& req : requests) {
    const EmbedResponse resp = engine.query(req);
    EXPECT_TRUE(resp.ok()) << resp.result->error;
  }
  EXPECT_EQ(engine.validation_stats().checked, 3u);
  EXPECT_EQ(engine.validation_stats().violations, 0u);
  // Hits return the already-validated object without re-running the oracle.
  EXPECT_TRUE(engine.query(requests[0]).cache_hit);
  EXPECT_EQ(engine.validation_stats().checked, 3u);
}

// --------------------------------------------------------------------------
// Engine: concurrent batches.

TEST(EmbedEngineTest, ConcurrentBatchMatchesSequentialBaseline) {
  Rng rng(2026);
  std::vector<EmbedRequest> batch;
  for (int i = 0; i < 72; ++i) {
    switch (rng.below(3)) {
      case 0:
        batch.push_back(node_request(3, 4, {rng.below(81), rng.below(81)}));
        break;
      case 1:
        batch.push_back(edge_request(3, 4, {rng.below(243)}));
        break;
      default:
        batch.push_back(edge_request(3, 4, {rng.below(243)}, Strategy::kButterfly));
        break;
    }
  }

  EmbedEngine concurrent;
  BatchStats stats;
  const std::vector<EmbedResponse> responses = concurrent.query_batch(batch, &stats);
  ASSERT_EQ(responses.size(), batch.size());

  EmbedEngine sequential(EngineOptions{.enable_cache = false});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto baseline = sequential.compute_uncached(batch[i]);
    EXPECT_TRUE(responses[i].result->same_embedding(*baseline)) << "request " << i;
  }

  EXPECT_EQ(stats.processed(), batch.size());
  EXPECT_EQ(stats.merged_latency().count(), batch.size());
  EXPECT_EQ(stats.cache_hits(), concurrent.cache_stats().hits);
  EXPECT_GT(stats.wall_micros, 0.0);
  EXPECT_GT(stats.throughput_qps(), 0.0);
  std::uint64_t worker_hits = 0;
  for (const WorkerStats& w : stats.workers) worker_hits += w.cache_hits;
  EXPECT_EQ(worker_hits, stats.cache_hits());
}

TEST(EmbedEngineTest, RepeatHeavyBatchMostlyHitsTheCache) {
  const EmbedRequest hot = node_request(3, 4, {11, 57});
  std::vector<EmbedRequest> batch(200, hot);
  EmbedEngine engine;
  BatchStats stats;
  const std::vector<EmbedResponse> responses = engine.query_batch(batch, &stats);
  // Every worker computes the hot key at most once (racing first misses are
  // allowed), so hits dominate.
  EXPECT_GE(stats.cache_hits(), batch.size() - worker_count());
  for (const EmbedResponse& r : responses)
    EXPECT_TRUE(r.result->same_embedding(*responses.front().result));
}

// --------------------------------------------------------------------------
// Cache policy: deterministic answers (kOk, kNoEmbedding) are cacheable;
// kBadRequest / kInternalError never are; clear_cache() resets the stats
// counters along with the entries.

TEST(EmbedEngineTest, NoEmbeddingAnswersAreCached) {
  // psi(2) = 1: blocking the single scan cycle gives a deterministic
  // kNoEmbedding, which must be served from cache on repeat.
  EmbedEngine engine;
  const EmbedResponse clean =
      engine.query(edge_request(2, 4, {}, Strategy::kEdgeScan));
  ASSERT_TRUE(clean.ok());
  const Word blocking = edge_words(WordSpace(2, 4), clean.result->ring).front();
  const EmbedRequest req = edge_request(2, 4, {blocking}, Strategy::kEdgeScan);
  const EmbedResponse first = engine.query(req);
  ASSERT_EQ(first.result->status, EmbedStatus::kNoEmbedding);
  EXPECT_FALSE(first.cache_hit);
  const EmbedResponse second = engine.query(req);
  EXPECT_EQ(second.result->status, EmbedStatus::kNoEmbedding);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.get(), first.result.get());  // exact object
}

TEST(EmbedEngineTest, ErrorAnswersAreNeverCached) {
  // kBadRequest goes through the same cacheability gate as kInternalError
  // (only kOk and kNoEmbedding pass): repeats recompute every time.
  EmbedEngine engine;
  const EmbedRequest bad = node_request(2, 3, {99});  // out of range
  const EmbedResponse first = engine.query(bad);
  ASSERT_EQ(first.result->status, EmbedStatus::kBadRequest);
  const EmbedResponse second = engine.query(bad);
  EXPECT_EQ(second.result->status, EmbedStatus::kBadRequest);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_NE(first.result.get(), second.result.get());
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

TEST(EmbedEngineTest, ClearCacheResetsEntriesAndStatsCounters) {
  EmbedEngine engine;
  const EmbedRequest req = node_request(2, 6, {3});
  engine.query(req);
  engine.query(req);
  CacheStats before = engine.cache_stats();
  EXPECT_EQ(before.hits, 1u);
  EXPECT_EQ(before.misses, 1u);
  EXPECT_EQ(before.entries, 1u);

  engine.clear_cache();
  const CacheStats after = engine.cache_stats();
  EXPECT_EQ(after.hits, 0u);
  EXPECT_EQ(after.misses, 0u);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(after.entries, 0u);
  // The post-clear window attributes stats to post-clear traffic only.
  EXPECT_FALSE(engine.query(req).cache_hit);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
}

// --------------------------------------------------------------------------
// Context reuse: the second cache layer, with its own attribution counters.

TEST(EmbedEngineTest, DistinctFaultSetsOnOneInstanceReuseTheContext) {
  EmbedEngine engine;
  const EmbedResponse first = engine.query(node_request(2, 6, {1}));
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(first.context_cache_hit);  // built on first touch
  const EmbedResponse second = engine.query(node_request(2, 6, {2}));
  EXPECT_FALSE(second.cache_hit);  // distinct fault set: result-cache miss
  EXPECT_TRUE(second.context_cache_hit);

  const ServeStats stats = engine.serve_stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.context_hits, 1u);
  EXPECT_EQ(stats.context_misses, 1u);
  EXPECT_DOUBLE_EQ(stats.context_reuse_rate(), 0.5);
  EXPECT_EQ(engine.context_cache_stats().entries, 1u);
}

TEST(EmbedEngineTest, ResultCacheHitsDoNotTouchTheContextCache) {
  EmbedEngine engine;
  const EmbedRequest req = node_request(2, 6, {1});
  engine.query(req);
  const auto contexts_before = engine.context_cache_stats();
  const EmbedResponse repeat = engine.query(req);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_FALSE(repeat.context_cache_hit);
  const auto contexts_after = engine.context_cache_stats();
  EXPECT_EQ(contexts_after.hits, contexts_before.hits);
  EXPECT_EQ(contexts_after.misses, contexts_before.misses);
  EXPECT_EQ(engine.serve_stats().result_hits, 1u);
}

TEST(EmbedEngineTest, ContextReuseIsBitIdenticalToColdRebuilds) {
  EngineOptions cold_options;
  cold_options.reuse_contexts = false;
  cold_options.enable_cache = false;
  EmbedEngine cold(cold_options);
  EngineOptions warm_options;
  warm_options.enable_cache = false;
  EmbedEngine warm(warm_options);

  Rng rng(5);
  for (std::uint64_t variant = 0; variant < 24; ++variant) {
    // A mix of every strategy over shared instances, fresh fault sets.
    std::vector<EmbedRequest> batch;
    batch.push_back(node_request(2, 6, {rng.below(64)}));
    batch.push_back(node_request(2, 6, {rng.below(64)}, Strategy::kFfc));
    batch.push_back(edge_request(3, 4, {rng.below(243)}, Strategy::kEdgeScan));
    batch.push_back(edge_request(3, 4, {rng.below(243)}, Strategy::kEdgePhi));
    batch.push_back(edge_request(3, 4, {rng.below(243)}, Strategy::kButterfly));
    for (const EmbedRequest& req : batch) {
      const EmbedResponse a = cold.query(req);
      const EmbedResponse b = warm.query(req);
      ASSERT_TRUE(a.result && b.result);
      EXPECT_TRUE(a.result->same_embedding(*b.result));
      EXPECT_FALSE(a.context_cache_hit);  // cold engine never reuses
    }
  }
  EXPECT_EQ(cold.serve_stats().context_hits, 0u);
  EXPECT_GT(warm.serve_stats().context_hits, 0u);
}

TEST(EmbedEngineTest, BatchStatsSeparateResultAndContextHits) {
  EmbedEngine engine;
  std::vector<EmbedRequest> batch;
  for (Word v = 0; v < 16; ++v) {
    batch.push_back(node_request(2, 6, {v % 8}));  // 8 unique, 8 repeats
  }
  BatchStats stats;
  engine.query_batch(batch, &stats);
  // Every query either hit the result cache or computed; computed queries
  // beyond the very first context build reused the context.
  EXPECT_EQ(stats.processed(), batch.size());
  const std::uint64_t computed = stats.processed() - stats.cache_hits();
  EXPECT_GE(stats.context_hits(), computed - 1);
  EXPECT_LE(stats.context_hits(), computed);
}

// --------------------------------------------------------------------------
// Stats plumbing.

TEST(EmbedEngineTest, ClearCacheResetsServeStatsCoherently) {
  // Regression: clear_cache() used to reset CacheStats but keep the
  // engine-lifetime ServeStats counters, so a post-clear report could pair
  // stale result_hits with a fresh query count (a hit_rate above 1.0).
  EmbedEngine engine;
  const EmbedRequest req = node_request(2, 6, {3});
  engine.query(req);
  engine.query(req);
  engine.query(req);
  EXPECT_EQ(engine.serve_stats().result_hits, 2u);

  engine.clear_cache();
  const ServeStats after = engine.serve_stats();
  EXPECT_EQ(after.queries, 0u);
  EXPECT_EQ(after.result_hits, 0u);
  EXPECT_EQ(after.context_hits, 0u);
  EXPECT_EQ(after.context_misses, 0u);

  // One post-clear miss: both layers describe exactly the same window.
  engine.query(req);
  const ServeStats window = engine.serve_stats();
  EXPECT_EQ(window.queries, 1u);
  EXPECT_EQ(window.result_hits, 0u);
  EXPECT_LE(window.result_hit_rate(), 1.0);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  // Contexts survive a result-cache clear (documented behavior).
  EXPECT_EQ(engine.context_cache_stats().entries, 1u);
}

TEST(BatchStatsTest, QuarantinedResponsesAreCountedButNotTimed) {
  // Regression: a validate_responses quarantine (kInternalError veto) used
  // to be recorded into the worker's latency samples, skewing the p50/p99
  // aggregation of bench/verify_overhead.cpp. Quarantined responses are
  // now a separate counter and never enter the recorder.
  BatchStats stats;
  WorkerStats clean;
  clean.processed = 3;
  clean.latency.record(10.0);
  clean.latency.record(20.0);
  clean.latency.record(30.0);
  WorkerStats vetoed;
  vetoed.processed = 2;
  vetoed.quarantined = 2;  // both answers quarantined: nothing timed
  stats.workers = {clean, vetoed};

  EXPECT_EQ(stats.processed(), 5u);
  EXPECT_EQ(stats.quarantined(), 2u);
  EXPECT_EQ(stats.merged_latency().count(), 3u);
  EXPECT_DOUBLE_EQ(stats.merged_latency().percentile(100), 30.0);
}

TEST(EmbedEngineTest, ValidatedBatchTimesEveryNonQuarantinedResponse) {
  EngineOptions options;
  options.validate_responses = true;
  EmbedEngine engine(options);
  std::vector<EmbedRequest> stream;
  for (Word f = 0; f < 8; ++f) stream.push_back(node_request(2, 6, {f}));
  BatchStats stats;
  const auto responses = engine.query_batch(stream, &stats);
  ASSERT_EQ(responses.size(), stream.size());
  for (const EmbedResponse& r : responses) {
    ASSERT_TRUE(r.result);
    EXPECT_FALSE(r.result->quarantined);
  }
  EXPECT_EQ(stats.quarantined(), 0u);
  // With no vetoes, the percentile base covers the whole batch.
  EXPECT_EQ(stats.merged_latency().count(), stream.size());
}

TEST(LatencyRecorderTest, PercentilesUseNearestRank) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.record(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(rec.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(rec.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(rec.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(rec.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(rec.mean(), 50.5);
  LatencyRecorder other;
  other.record(1000.0);
  other.merge(rec);
  EXPECT_EQ(other.count(), 101u);
  EXPECT_DOUBLE_EQ(other.percentile(100), 1000.0);
}

TEST(LatencyRecorderTest, SnapshotMatchesPerCallPercentiles) {
  // The sorted snapshot pays the sort once; every rank it reports must be
  // bit-identical to the per-call path, insertion order notwithstanding.
  Rng rng(7);
  LatencyRecorder rec;
  for (int i = 0; i < 997; ++i) {
    rec.record(static_cast<double>(rng.below(100000)) / 7.0);
  }
  const LatencySnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.count(), rec.count());
  EXPECT_DOUBLE_EQ(snap.mean(), rec.mean());
  for (const double p :
       {0.0, 0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(snap.percentile(p), rec.percentile(p)) << "p=" << p;
  }
  // Out-of-range ranks clamp identically on both paths.
  EXPECT_DOUBLE_EQ(snap.percentile(-5.0), rec.percentile(-5.0));
  EXPECT_DOUBLE_EQ(snap.percentile(400.0), rec.percentile(400.0));
  EXPECT_DOUBLE_EQ(LatencySnapshot({}).percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(LatencySnapshot({}).mean(), 0.0);
}

}  // namespace
}  // namespace dbr::service
