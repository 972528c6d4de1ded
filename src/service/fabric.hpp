#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/distributed_ffc.hpp"
#include "service/engine.hpp"
#include "service/types.hpp"
#include "util/rcu_snapshot.hpp"
#include "util/thread_annotations.hpp"

namespace dbr::service {

/// Identity of one engine shard inside the fabric; dense, assigned at
/// construction in [0, shard_count).
using ShardId = std::uint32_t;

/// Consistent-hashing ring over engine shards, the DAOS-style placement map
/// of the fabric: every shard contributes `vnodes` virtual points (derived
/// from a deterministic SplitMix64 mix of the shard id and vnode index, so
/// two processes always agree on placement) and a key is owned by the first
/// virtual point at or clockwise after its hash. Adding or removing one
/// shard therefore remaps only the arcs adjacent to that shard's virtual
/// points — the minimal set — and with enough virtual points the arc mass
/// balances across shards to within a few percent.
///
/// The ring is an immutable-after-build value type: the ShardRouter mutates
/// a copy and republishes it through an RCU cell, so lookups never lock.
class HashRing {
 public:
  /// Default virtual points per shard; 64 keeps the max/mean arc imbalance
  /// under ~1.3x for small fleets while keeping rebuild cost trivial.
  static constexpr std::size_t kDefaultVnodes = 64;

  explicit HashRing(std::size_t vnodes_per_shard = kDefaultVnodes);

  /// Adds `shard`'s virtual points to the ring. Requires it absent.
  void add(ShardId shard);

  /// Removes `shard`'s virtual points; keys on its arcs fall to the next
  /// point clockwise. Requires it present.
  void remove(ShardId shard);

  /// True when `shard` currently contributes points to the ring.
  bool contains(ShardId shard) const;

  /// Number of shards on the ring.
  std::size_t shard_count() const { return shards_.size(); }

  /// True when no shard is on the ring (owner() is then unanswerable).
  bool empty() const { return shards_.empty(); }

  /// Shards currently on the ring, ascending.
  const std::vector<ShardId>& shards() const { return shards_; }

  /// The shard owning hash point `point`. Requires a nonempty ring.
  ShardId owner(std::uint64_t point) const;

  /// Deterministic hash point of instance (base, n); the same mix on every
  /// process, so placement is reproducible across machines.
  static std::uint64_t instance_point(Digit base, unsigned n);

 private:
  static std::uint64_t vnode_point(ShardId shard, std::uint32_t vnode);

  std::size_t vnodes_;
  /// (point, shard), sorted by point; lookups binary-search it.
  std::vector<std::pair<std::uint64_t, ShardId>> ring_;
  std::vector<ShardId> shards_;  ///< sorted member list
};

/// Construction-time knobs of the shard fabric.
struct FabricOptions {
  /// Number of engine shards (>= 1). Shard ids are [0, shards).
  std::size_t shards = 4;
  /// Virtual points per shard on the placement ring.
  std::size_t vnodes = HashRing::kDefaultVnodes;
  /// Worker threads per shard pool serving query_batch traffic. 0 means
  /// batch items run inline on the caller (queries always may).
  std::size_t workers_per_shard = 2;
  /// Options every shard's EmbedEngine is built with. Note that
  /// engine.context_cache_capacity is *per shard* — the fabric's aggregate
  /// context residency scales with the shard count, which is precisely its
  /// scale-out story.
  EngineOptions engine;
};

/// Per-shard slice of FabricStats.
struct FabricShardStats {
  ShardId shard = 0;
  bool alive = true;             ///< false after kill_shard until revived
  std::uint64_t keys_owned = 0;  ///< observed instance keys this shard owns
  std::uint64_t queries = 0;     ///< requests routed here
  EngineStatsSnapshot engine;    ///< the shard engine's own counter families
};

/// Fabric-aggregate counters plus the per-shard breakdown.
struct FabricStats {
  std::uint64_t queries = 0;        ///< total requests routed
  /// Always 0: every request is served by its owner. The field remains
  /// only because the benchmark harness (perfbench/src/layers.cpp) reports
  /// its share of queries; it goes when that harness next changes.
  std::uint64_t replica_reads = 0;
  std::uint64_t remap_events = 0;   ///< kill_shard + revive_shard transitions
  std::uint64_t remapped_keys = 0;  ///< keys whose owner changed across remaps
  /// Section-2.4 cost model of every remap so far: each migrated instance is
  /// priced as one distributed FFC rebuild of its B(base, n)
  /// (core::predict_rebuild_rounds), accumulated per phase. This is the
  /// fabric's cross-shard message-cost estimator.
  core::DistributedFfcStats remap_cost;
  std::vector<FabricShardStats> shards;
};

/// Sharded multi-engine fabric: partitions the (base, n) instance keyspace
/// across independent EmbedEngine shards (each with its own context cache,
/// result cache, and worker pool) by consistent hashing, so no
/// InstanceContext is ever built twice fabric-wide and aggregate context
/// residency scales with the shard count.
///
/// Placement: requests hash their (base, n) to a point on a HashRing
/// published through an RCU cell — routing reads never lock — and every
/// request is served by that point's owner.
///
/// Shard loss (kill_shard) republishes a ring without the victim — only its
/// arc remaps, to its successors — drains the victim's queued work back
/// through the router, and eagerly rebuilds the migrated instances'
/// contexts on their new owners; the Section-2.4 round accounting of each
/// rebuild accumulates into FabricStats::remap_cost. Because every engine
/// computes the same deterministic function of the canonical request,
/// answers stay bit-identical to a single-engine baseline before, during,
/// and after any remap; with EngineOptions::validate_responses on, every
/// computed answer is additionally oracle-checked on whichever shard serves
/// it.
class ShardRouter {
 public:
  explicit ShardRouter(FabricOptions options = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Serves one request inline on its owning shard's engine. Thread-safe;
  /// routing is wait-free once the instance has been seen.
  EmbedResponse query(const EmbedRequest& request);

  /// Serves a batch through the per-shard worker pools: each request is
  /// routed independently and enqueued on its shard, so a batch spanning
  /// instances fans out across the fabric. Responses come back in request
  /// order. With workers_per_shard == 0 the batch runs inline.
  std::vector<EmbedResponse> query_batch(std::span<const EmbedRequest> requests);

  /// Fail-stop removal of `shard`: republishes the ring without it (routing
  /// moves instantly), re-routes its queued work, joins its pool, and
  /// eagerly rebuilds every remapped instance's context on its new owner.
  /// Returns when the fabric is fully recovered — the caller's wall clock
  /// around this call *is* the time-to-recovery. Requires `shard` alive and
  /// not the last one.
  void kill_shard(ShardId shard);

  /// Brings a killed shard back: restarts its pool, warms the contexts of
  /// the arc that will return to it, then republishes the ring with it.
  /// Requires `shard` dead.
  void revive_shard(ShardId shard);

  /// True while `shard` is on the ring.
  bool shard_alive(ShardId shard) const;

  /// Total shards the fabric was built with (dead ones included).
  std::size_t shard_count() const { return shards_.size(); }

  /// Shards currently on the ring.
  std::size_t alive_count() const;

  /// The shard currently owning instance (base, n).
  ShardId owner_of(Digit base, unsigned n) const;

  /// The engine of the shard currently owning (base, n) — what a stateful
  /// session binds to. The engine outlives kill_shard (sessions may pin it);
  /// it simply stops receiving routed traffic while dead.
  EmbedEngine& engine_for(Digit base, unsigned n);

  /// Direct access to a shard's engine (tests, stats). Requires a valid id.
  EmbedEngine& shard_engine(ShardId shard);

  /// Coherent fabric snapshot: aggregate counters, the Section-2.4 remap
  /// cost, and every shard's own EngineStatsSnapshot.
  FabricStats stats() const;

  /// Every shard's engine counters summed into one EngineStatsSnapshot —
  /// what the networked STATS op reports as "the engine" in fabric mode.
  EngineStatsSnapshot aggregate_engine_stats() const;

  const FabricOptions& options() const { return options_; }

 private:
  /// key_of() of every instance routed so far: what stats() counts and
  /// kill/revive remap.
  using KeySet = std::unordered_set<std::uint64_t>;

  struct BatchState;
  /// One unit of pool work: fill `*response` from `*request`, then credit
  /// the batch's completion latch.
  struct BatchItem {
    const EmbedRequest* request = nullptr;
    EmbedResponse* response = nullptr;
    BatchState* batch = nullptr;
  };

  /// One engine shard plus its worker pool.
  struct Shard {
    ShardId id = 0;
    std::unique_ptr<EmbedEngine> engine;
    std::atomic<bool> alive{true};
    std::atomic<std::uint64_t> queries{0};
    util::Mutex mu;
    util::CondVar cv;
    std::deque<BatchItem> queue DBR_GUARDED_BY(mu);  ///< pending pool work
    /// False while draining (kill_shard); submit() then re-routes.
    bool accepting DBR_GUARDED_BY(mu) = true;
    bool stopping DBR_GUARDED_BY(mu) = false;  ///< pool exit flag
    std::vector<std::thread> workers;
  };

  static std::uint64_t key_of(Digit base, unsigned n) {
    return (static_cast<std::uint64_t>(base) << 32) | n;
  }
  static Digit base_of(std::uint64_t key) { return static_cast<Digit>(key >> 32); }
  static unsigned n_of(std::uint64_t key) { return static_cast<unsigned>(key); }

  /// Adds (base, n) to the observed key set unless it is already there.
  void observe(Digit base, unsigned n);
  /// Routes one request to its owner off the current ring and counts it.
  Shard& route(const EmbedRequest& request);
  /// Enqueues a batch item on its routed shard, re-routing if that shard
  /// stopped accepting (its ring departure is already published).
  void submit(const BatchItem& item);
  void start_pool(Shard& shard);
  void stop_pool(Shard& shard);
  void worker_loop(Shard& shard);
  /// Builds (base, n)'s context on `shard`, charging the Section-2.4 rebuild
  /// price into remap_cost_; the annotation makes the "callers hold
  /// admin_mu_" convention a compile-time requirement.
  void warm_context(Shard& shard, Digit base, unsigned n)
      DBR_REQUIRES(admin_mu_);

  FabricOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  util::RcuSnapshot<HashRing> ring_;  ///< alive shards only; never null
  mutable util::Mutex ring_mu_;       ///< serializes ring_ writers
  util::RcuSnapshot<KeySet> keys_;    ///< observed keys; never null
  util::Mutex keys_mu_;               ///< serializes keys_ writers
  /// Serializes kill/revive and guards the remap accounting below.
  mutable util::Mutex admin_mu_;
  std::uint64_t remap_events_ DBR_GUARDED_BY(admin_mu_) = 0;
  std::uint64_t remapped_keys_ DBR_GUARDED_BY(admin_mu_) = 0;
  core::DistributedFfcStats remap_cost_ DBR_GUARDED_BY(admin_mu_);
};

}  // namespace dbr::service
