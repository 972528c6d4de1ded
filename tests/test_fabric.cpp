#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "core/distributed_ffc.hpp"
#include "service/engine.hpp"
#include "service/fabric.hpp"
#include "service/session.hpp"
#include "sim/engine.hpp"
#include "sim/session_driver.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dbr::service {
namespace {

EmbedRequest node_request(Digit d, unsigned n, std::vector<Word> faults) {
  EmbedRequest req;
  req.base = d;
  req.n = n;
  req.fault_kind = FaultKind::kNode;
  req.faults = std::move(faults);
  return req;
}

/// The small FFC instances the router tests span: cheap to solve, many
/// enough that every 4-shard placement owns several.
const std::vector<std::pair<Digit, unsigned>>& test_instances() {
  static const std::vector<std::pair<Digit, unsigned>> kInstances = {
      {2, 5}, {2, 6}, {2, 7}, {2, 8}, {3, 3}, {3, 4},
      {3, 5}, {4, 3}, {4, 4}, {5, 3}, {6, 2}, {7, 2},
  };
  return kInstances;
}

/// One request per test instance plus faulted variants, deterministic.
std::vector<EmbedRequest> test_stream(std::size_t repeats) {
  Rng rng(20260808);
  std::vector<EmbedRequest> stream;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (const auto& [d, n] : test_instances()) {
      const std::uint64_t f = 1 + rng.below(2);
      std::vector<Word> faults;
      for (std::uint64_t v : rng.sample_distinct(WordSpace(d, n).size(), f))
        faults.push_back(v);
      stream.push_back(node_request(d, n, std::move(faults)));
    }
  }
  return stream;
}

// --- HashRing invariants ----------------------------------------------------

TEST(HashRing, MinimalKeyMovementOnRemove) {
  HashRing before(64);
  for (ShardId s = 0; s < 5; ++s) before.add(s);
  HashRing after = before;
  after.remove(2);

  std::size_t moved = 0;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const std::uint64_t point = i * 0x9e3779b97f4a7c15ull;
    const ShardId old_owner = before.owner(point);
    const ShardId new_owner = after.owner(point);
    if (old_owner != 2) {
      // Only the departed shard's arc may remap.
      EXPECT_EQ(old_owner, new_owner);
    } else {
      EXPECT_NE(new_owner, 2u);
      ++moved;
    }
  }
  // The victim owned a nontrivial arc, and nothing else moved.
  EXPECT_GT(moved, 0u);
}

TEST(HashRing, AddIsInverseOfRemove) {
  HashRing ring(64);
  for (ShardId s = 0; s < 5; ++s) ring.add(s);
  std::vector<ShardId> owners;
  for (std::uint64_t i = 0; i < 2000; ++i)
    owners.push_back(ring.owner(i * 0x2545f4914f6cdd1dull));
  ring.remove(3);
  ring.add(3);
  for (std::uint64_t i = 0; i < 2000; ++i)
    EXPECT_EQ(owners[i], ring.owner(i * 0x2545f4914f6cdd1dull));
}

TEST(HashRing, BalanceBoundWithVnodes) {
  constexpr std::size_t kShards = 8;
  HashRing ring(128);
  for (ShardId s = 0; s < kShards; ++s) ring.add(s);
  std::vector<std::uint64_t> owned(kShards, 0);
  constexpr std::uint64_t kPoints = 40000;
  Rng rng(7);
  for (std::uint64_t i = 0; i < kPoints; ++i) owned[ring.owner(rng.next_u64())]++;
  const double mean = static_cast<double>(kPoints) / kShards;
  for (ShardId s = 0; s < kShards; ++s) {
    EXPECT_LT(owned[s], mean * 1.75) << "shard " << s << " overloaded";
    EXPECT_GT(owned[s], mean * 0.40) << "shard " << s << " starved";
  }
}

TEST(HashRing, DeterministicPlacementAcrossBuilds) {
  // Two rings built in different insertion orders agree everywhere: the
  // placement is a pure function of (shard set, vnodes), never of history —
  // which is what makes placement reproducible across processes.
  HashRing a(64), b(64);
  for (ShardId s = 0; s < 6; ++s) a.add(s);
  for (ShardId s = 6; s-- > 0;) b.add(s);
  for (const auto& [d, n] : test_instances()) {
    const std::uint64_t point = HashRing::instance_point(d, n);
    EXPECT_EQ(a.owner(point), b.owner(point));
  }
}

TEST(HashRing, PreconditionsThrow) {
  HashRing ring(8);
  EXPECT_THROW(ring.owner(0), precondition_error);
  ring.add(0);
  EXPECT_THROW(ring.add(0), precondition_error);
  EXPECT_THROW(ring.remove(1), precondition_error);
}

// --- ShardRouter ------------------------------------------------------------

FabricOptions small_fabric(std::size_t shards, std::size_t workers = 0) {
  FabricOptions opts;
  opts.shards = shards;
  opts.workers_per_shard = workers;
  return opts;
}

TEST(ShardRouter, BitIdenticalToSingleEngine) {
  ShardRouter fabric(small_fabric(4));
  EmbedEngine single;
  for (const EmbedRequest& req : test_stream(2)) {
    const EmbedResponse ours = fabric.query(req);
    const EmbedResponse theirs = single.query(req);
    ASSERT_TRUE(ours.result && theirs.result);
    EXPECT_TRUE(ours.result->same_embedding(*theirs.result));
  }
}

TEST(ShardRouter, NoContextBuiltTwiceFabricWide) {
  ShardRouter fabric(small_fabric(4));
  const std::vector<EmbedRequest> stream = test_stream(3);
  for (const EmbedRequest& req : stream) fabric.query(req);
  const FabricStats stats = fabric.stats();
  std::uint64_t total_builds = 0, total_owned = 0;
  for (const FabricShardStats& s : stats.shards) {
    total_builds += s.engine.contexts.misses;
    total_owned += s.keys_owned;
  }
  // Every distinct instance was built exactly once, on exactly one shard.
  EXPECT_EQ(total_builds, test_instances().size());
  EXPECT_EQ(total_owned, test_instances().size());
  EXPECT_EQ(stats.queries, stream.size());
  EXPECT_EQ(stats.replica_reads, 0u);
}

TEST(ShardRouter, QueryBatchMatchesIndividualQueries) {
  ShardRouter pooled(small_fabric(3, /*workers=*/2));
  ShardRouter inline_router(small_fabric(3, /*workers=*/0));
  const std::vector<EmbedRequest> stream = test_stream(2);
  const std::vector<EmbedResponse> batched = pooled.query_batch(stream);
  ASSERT_EQ(batched.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const EmbedResponse one = inline_router.query(stream[i]);
    ASSERT_TRUE(batched[i].result && one.result) << "request " << i;
    EXPECT_TRUE(batched[i].result->same_embedding(*one.result))
        << "request " << i;
  }
}

TEST(ShardRouter, HotKeysStayOnTheirOwner) {
  // Default options: however often one instance is served, only its owner
  // answers, so its context is built once fabric-wide.
  ShardRouter fabric;
  EmbedEngine single;
  constexpr std::uint64_t kServes = 200;
  for (std::uint64_t i = 0; i < kServes; ++i) {
    const EmbedRequest req = node_request(2, 6, {i % 8, 9 + i % 5});
    const EmbedResponse got = fabric.query(req);
    const EmbedResponse expected = single.query(req);
    ASSERT_TRUE(got.result && expected.result);
    EXPECT_TRUE(got.result->same_embedding(*expected.result));
  }
  const ShardId owner = fabric.owner_of(2, 6);
  const FabricStats stats = fabric.stats();
  EXPECT_EQ(stats.queries, kServes);
  for (const FabricShardStats& s : stats.shards) {
    EXPECT_EQ(s.queries, s.shard == owner ? kServes : 0u) << "shard " << s.shard;
    EXPECT_EQ(s.engine.contexts.misses, s.shard == owner ? 1u : 0u)
        << "shard " << s.shard;
  }
}

TEST(ShardRouter, KillShardRemapsOnlyItsArcAndKeepsAnswers) {
  ShardRouter fabric(small_fabric(4));
  EmbedEngine single;
  const std::vector<EmbedRequest> stream = test_stream(1);
  for (const EmbedRequest& req : stream) fabric.query(req);

  std::map<std::uint64_t, ShardId> owner_before;
  for (const auto& [d, n] : test_instances())
    owner_before[(static_cast<std::uint64_t>(d) << 32) | n] =
        fabric.owner_of(d, n);
  // Kill a shard that owns at least one test instance, so the remap is
  // observable.
  ShardId victim = fabric.owner_of(2, 5);
  fabric.kill_shard(victim);
  EXPECT_FALSE(fabric.shard_alive(victim));
  EXPECT_EQ(fabric.alive_count(), 3u);

  std::uint64_t moved = 0;
  for (const auto& [d, n] : test_instances()) {
    const ShardId before = owner_before[(static_cast<std::uint64_t>(d) << 32) | n];
    const ShardId after = fabric.owner_of(d, n);
    if (before == victim) {
      EXPECT_NE(after, victim);
      ++moved;
    } else {
      EXPECT_EQ(after, before);  // only the victim's arc may move
    }
  }
  EXPECT_GT(moved, 0u);

  // Answers stay bit-identical to the single-engine baseline after remap.
  for (const EmbedRequest& req : stream) {
    const EmbedResponse ours = fabric.query(req);
    const EmbedResponse theirs = single.query(req);
    ASSERT_TRUE(ours.result && theirs.result);
    EXPECT_TRUE(ours.result->same_embedding(*theirs.result));
  }

  // Revive restores the original placement exactly (add is remove's
  // inverse on the ring).
  fabric.revive_shard(victim);
  EXPECT_TRUE(fabric.shard_alive(victim));
  for (const auto& [d, n] : test_instances()) {
    EXPECT_EQ(fabric.owner_of(d, n),
              owner_before[(static_cast<std::uint64_t>(d) << 32) | n]);
  }
}

TEST(ShardRouter, KillShardChargesSection24RebuildCost) {
  ShardRouter fabric(small_fabric(4));
  for (const EmbedRequest& req : test_stream(1)) fabric.query(req);
  const ShardId victim = fabric.owner_of(2, 5);

  // Expected price: one distributed rebuild per instance on the victim's
  // arc (the diameter-bound estimate, eccentricity unknown at remap time).
  core::DistributedFfcStats expected;
  std::uint64_t expected_keys = 0;
  for (const auto& [d, n] : test_instances()) {
    if (fabric.owner_of(d, n) != victim) continue;
    const core::DistributedFfcStats one = core::predict_rebuild_rounds(d, n);
    expected.probe_rounds += one.probe_rounds;
    expected.broadcast_rounds += one.broadcast_rounds;
    expected.dossier_rounds += one.dossier_rounds;
    expected.announce_rounds += one.announce_rounds;
    expected.reroute_rounds += one.reroute_rounds;
    expected.messages += one.messages;
    ++expected_keys;
  }
  ASSERT_GT(expected_keys, 0u);

  fabric.kill_shard(victim);
  const FabricStats stats = fabric.stats();
  EXPECT_EQ(stats.remap_events, 1u);
  EXPECT_EQ(stats.remapped_keys, expected_keys);
  EXPECT_EQ(stats.remap_cost.total_rounds(), expected.total_rounds());
  EXPECT_EQ(stats.remap_cost.messages, expected.messages);

  // The migrated contexts were rebuilt eagerly: serving the remapped arc
  // again misses no context anywhere.
  std::uint64_t builds_before = 0;
  for (const FabricShardStats& s : stats.shards)
    builds_before += s.engine.contexts.misses;
  for (const EmbedRequest& req : test_stream(1)) fabric.query(req);
  std::uint64_t builds_after = 0;
  for (const FabricShardStats& s : fabric.stats().shards)
    builds_after += s.engine.contexts.misses;
  EXPECT_EQ(builds_after, builds_before);
}

TEST(ShardRouter, MidBatchShardKillKeepsAnswersWithOracle) {
  FabricOptions opts = small_fabric(4, /*workers=*/1);
  opts.engine.validate_responses = true;
  ShardRouter fabric(opts);
  EmbedEngine single;
  const std::vector<EmbedRequest> stream = test_stream(4);

  // Kill a shard while the batch is in flight, then revive it. The batch
  // must complete with every answer bit-identical and zero oracle
  // violations.
  std::vector<EmbedResponse> responses;
  std::thread load([&] { responses = fabric.query_batch(stream); });
  fabric.kill_shard(1);
  fabric.revive_shard(1);
  load.join();

  ASSERT_EQ(responses.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const EmbedResponse expected = single.query(stream[i]);
    ASSERT_TRUE(responses[i].result && expected.result) << "request " << i;
    EXPECT_TRUE(responses[i].result->same_embedding(*expected.result))
        << "request " << i;
  }
  EXPECT_EQ(fabric.aggregate_engine_stats().validation.violations, 0u);
  const FabricStats stats = fabric.stats();
  EXPECT_EQ(stats.remap_events, 2u);
}

TEST(ShardRouter, KillPreconditions) {
  ShardRouter fabric(small_fabric(2));
  EXPECT_THROW(fabric.kill_shard(9), precondition_error);
  fabric.kill_shard(0);
  EXPECT_THROW(fabric.kill_shard(0), precondition_error);  // already dead
  EXPECT_THROW(fabric.kill_shard(1), precondition_error);  // last shard
  EXPECT_THROW(fabric.revive_shard(1), precondition_error);  // still alive
  fabric.revive_shard(0);
  EXPECT_TRUE(fabric.shard_alive(0));
}

// Regression: the key map retires one snapshot per distinct (base, n) key,
// and RcuSnapshot's retire list waits out in-flight readers once it holds
// 16 deferred snapshots. key_state() used to publish while still holding
// its own ReadGuard, so the 16th distinct key spun forever on the caller's
// own pin. Anything past 16 distinct keys exercises the fixed path.
TEST(ShardRouter, ManyDistinctKeysDoNotWedgeTheKeyMap) {
  ShardRouter fabric(small_fabric(2));
  const std::vector<std::pair<Digit, unsigned>> keys = {
      {2, 3}, {2, 4},  {2, 5}, {2, 6}, {2, 7}, {2, 8}, {2, 9},
      {2, 10}, {3, 2}, {3, 3}, {3, 4}, {3, 5}, {3, 6}, {4, 2},
      {4, 3}, {4, 4},  {5, 2}, {5, 3}, {6, 2}, {7, 2},
  };
  ASSERT_GT(keys.size(), 16u);
  for (const auto& [d, n] : keys) {
    (void)fabric.query(node_request(d, n, {1}));
  }
  std::uint64_t owned = 0;
  for (const FabricShardStats& s : fabric.stats().shards) owned += s.keys_owned;
  EXPECT_EQ(owned, keys.size());
}

// Regression companion: kill_shard/revive_shard publish one ring snapshot
// each, and also used to do so under their own ring ReadGuard. Churning
// past the 16-snapshot retire bound must not wedge the ring either.
TEST(ShardRouter, RingSurvivesChurnPastRetireBound) {
  ShardRouter fabric(small_fabric(3));
  const EmbedRequest probe = node_request(2, 6, {1});
  for (int round = 0; round < 12; ++round) {
    const ShardId victim = static_cast<ShardId>(round % 3);
    fabric.kill_shard(victim);
    (void)fabric.query(probe);
    fabric.revive_shard(victim);
    (void)fabric.query(probe);
  }
  EXPECT_EQ(fabric.alive_count(), 3u);
  for (ShardId s = 0; s < 3; ++s) EXPECT_TRUE(fabric.shard_alive(s));
}

// Regression for the util::Mutex/CondVar/UniqueLock migration (the fabric's
// shard queues, batch latch and admin section now lock through the annotated
// wrappers): behavior under genuinely concurrent traffic — several threads
// issuing batches while shards churn — must be unchanged. Every response
// stays bit-identical to a single-engine reference and no batch wedges on
// the rewritten while-loop condition waits.
TEST(ShardRouter, WrappedLocksPreserveBehaviorUnderConcurrentTraffic) {
  constexpr std::size_t kLoadThreads = 4;
  FabricOptions opts = small_fabric(4, /*workers=*/2);
  ShardRouter fabric(opts);
  EmbedEngine single;
  const std::vector<EmbedRequest> stream = test_stream(3);

  std::vector<std::vector<EmbedResponse>> results(kLoadThreads);
  std::vector<std::thread> load;
  load.reserve(kLoadThreads);
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    load.emplace_back([&, t] { results[t] = fabric.query_batch(stream); });
  }
  // Churn the ring while the batches drain: kill/revive serialize on the
  // wrapped admin mutex, workers block on the wrapped shard cv.
  for (int round = 0; round < 3; ++round) {
    const ShardId victim = static_cast<ShardId>(1 + round % 3);
    fabric.kill_shard(victim);
    fabric.revive_shard(victim);
  }
  for (auto& t : load) t.join();

  std::vector<EmbedResponse> expected;
  expected.reserve(stream.size());
  for (const EmbedRequest& req : stream) expected.push_back(single.query(req));
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    ASSERT_EQ(results[t].size(), stream.size()) << "thread " << t;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(results[t][i].result && expected[i].result)
          << "thread " << t << " request " << i;
      EXPECT_TRUE(results[t][i].result->same_embedding(*expected[i].result))
          << "thread " << t << " request " << i;
    }
  }
  EXPECT_EQ(fabric.alive_count(), 4u);
  EXPECT_EQ(fabric.stats().remap_events, 6u);
}

TEST(ShardRouter, EngineForFollowsOwnership) {
  ShardRouter fabric(small_fabric(3));
  for (const auto& [d, n] : test_instances()) {
    const ShardId owner = fabric.owner_of(d, n);
    EXPECT_EQ(&fabric.engine_for(d, n), &fabric.shard_engine(owner));
  }
}

// --- SessionDriver shard events ---------------------------------------------

TEST(SessionDriverFabric, ShardLossIsAChurnEvent) {
  ShardRouter fabric(small_fabric(3));
  const Digit d = 2;
  const unsigned n = 6;
  EmbedSession session(fabric.engine_for(d, n), d, n, FaultKind::kNode);
  sim::Engine net(WordSpace(d, n).size(),
                  [ws = WordSpace(d, n)](NodeId u, NodeId v) {
                    return ws.suffix(u) == ws.prefix(v);
                  });
  sim::SessionDriver driver(net, session);
  driver.attach_fabric(fabric);

  EmbedEngine single;
  driver.kill(3);
  const EmbedResponse before = driver.current_ring();
  ASSERT_TRUE(before.ok());
  // Lose the shard serving this very instance mid-churn; the session's
  // pinned engine keeps answering, bit-identical.
  const ShardId victim = fabric.owner_of(d, n);
  driver.kill_shard(victim);
  driver.kill(17);
  const EmbedResponse after = driver.current_ring();
  ASSERT_TRUE(after.ok());
  const EmbedResponse expected = single.query(node_request(d, n, {3, 17}));
  EXPECT_TRUE(after.result->same_embedding(*expected.result));

  driver.revive_shard(victim);
  const sim::ChurnDriveStats& stats = driver.stats();
  EXPECT_EQ(stats.shard_kills, 1u);
  EXPECT_EQ(stats.shard_revives, 1u);
  EXPECT_EQ(stats.kills, 2u);
}

TEST(SessionDriverFabric, ShardEventsRequireAttachedFabric) {
  const Digit d = 2;
  const unsigned n = 5;
  EmbedEngine engine;
  EmbedSession session(engine, d, n, FaultKind::kNode);
  sim::Engine net(WordSpace(d, n).size(),
                  [ws = WordSpace(d, n)](NodeId u, NodeId v) {
                    return ws.suffix(u) == ws.prefix(v);
                  });
  sim::SessionDriver driver(net, session);
  EXPECT_THROW(driver.kill_shard(0), precondition_error);
  EXPECT_THROW(driver.revive_shard(0), precondition_error);
}

}  // namespace
}  // namespace dbr::service
