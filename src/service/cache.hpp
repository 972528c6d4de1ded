#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "service/strategy.hpp"
#include "service/types.hpp"
#include "util/rcu_snapshot.hpp"
#include "util/thread_annotations.hpp"

namespace dbr::service {

/// Canonical cache identity of an EmbedRequest. Fault words are sorted and
/// deduplicated, so the same fault set presented in any order (with or
/// without repeats) maps to the same key. kAuto is resolved to the concrete
/// strategy before keying, so `{kAuto}` and the strategy it resolves to share
/// cache entries. Mixed keys additionally collapse every edge fault
/// dominated by a node fault (FaultSet::canonicalize), so "dead router" and
/// "dead router plus its incident links" are one cache entry.
struct CacheKey {
  Digit base = 0;   ///< radix d of the instance.
  unsigned n = 0;   ///< tuple length of the instance.
  FaultKind fault_kind = FaultKind::kNode;  ///< request fault interpretation.
  Strategy strategy = Strategy::kAuto;      ///< resolved (never kAuto when canonical).
  std::vector<Word> faults;       ///< sorted, unique; node words for kNode/kMixed, edge words for kEdge.
  std::vector<Word> edge_faults;  ///< sorted, unique, undominated; kMixed only.

  bool operator==(const CacheKey&) const = default;
};

/// Builds the canonical key: resolved strategy + sorted/deduplicated faults.
CacheKey canonical_key(const EmbedRequest& request);

/// The complete request a canonical key stands for (what the verify/ oracle
/// checks an answer against): canonical_key(to_request(key)) == key.
EmbedRequest to_request(const CacheKey& key);

/// Hash functor for CacheKey (SplitMix64 mixing over every field).
struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const;
};

/// Aggregate hit/miss/eviction counters of the result cache.
struct CacheStats {
  std::uint64_t hits = 0;       ///< gets served from the cache.
  std::uint64_t misses = 0;     ///< gets that found nothing.
  std::uint64_t evictions = 0;  ///< LRU evictions under capacity pressure.
  std::uint64_t entries = 0;    ///< entries currently resident.

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Sharded LRU map from canonical request keys to computed embeddings.
/// Keys are distributed across shards by hash. Values are immutable
/// shared_ptrs: a get() returns the exact object a put() stored, so cached
/// answers are bit-identical to the original computation.
///
/// The hit path is read-side lock-free (RCU): each shard publishes an
/// immutable snapshot of its map through a util::RcuSnapshot cell, and
/// get() resolves keys against the snapshot without ever taking the shard
/// mutex (wait-free: two counter bumps and one pointer load).
/// LRU recency is kept *exact* without a mutex either — every entry carries
/// an atomic last-used tick that the hit stores into, and eviction (under
/// the writer mutex) scans for the minimum tick, which names the same
/// victim a recency list would. Writers (put/clear) serialize on the shard
/// mutex, mutate the authoritative map, and publish a fresh snapshot;
/// in-flight readers keep the old snapshot alive until they drop it.
class ShardedLruCache {
 public:
  /// `capacity` is the total entry budget, split evenly across shards
  /// (at least one entry per shard). `shard_count` >= 1.
  explicit ShardedLruCache(std::size_t capacity, std::size_t shard_count = 16);

  /// Returns the cached value and refreshes its LRU recency, or nullptr.
  /// Lock-free: touches only the shard's published snapshot and atomics.
  std::shared_ptr<const EmbedResult> get(const CacheKey& key);

  /// Inserts or refreshes `key`, evicting the shard's least-recently-used
  /// entry if full, and publishes the shard's next read snapshot.
  void put(const CacheKey& key, std::shared_ptr<const EmbedResult> value);

  void clear();

  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t size() const;

  /// Aggregated over shards from the atomic counters; counters may be
  /// mid-update, so totals are approximate under concurrent traffic.
  CacheStats stats() const;

 private:
  /// One cached value plus its recency tick. Shared between the
  /// authoritative map and every published snapshot, so a lock-free hit
  /// can refresh recency in place; `value` is immutable after construction
  /// (a put-refresh installs a *new* Entry rather than mutating this one).
  struct Entry {
    Entry(std::shared_ptr<const EmbedResult> v, std::uint64_t t)
        : value(std::move(v)), last_used(t) {}

    std::shared_ptr<const EmbedResult> value;
    std::atomic<std::uint64_t> last_used;
  };

  struct Shard {
    using Map =
        std::unordered_map<CacheKey, std::shared_ptr<Entry>, CacheKeyHash>;

    /// The read path: an immutable map published by the last writer.
    /// Readers pin it with a ReadGuard; retired snapshots are reclaimed
    /// by later writers once the guards drain (see util/rcu_snapshot.hpp).
    util::RcuSnapshot<Map> snapshot;
    mutable util::Mutex mu;  ///< writers only (put/clear)
    /// Authoritative map; the annotation makes every unlocked touch a
    /// compile error under -Wthread-safety.
    Map index DBR_GUARDED_BY(mu);
    std::size_t capacity = 0;  ///< set once at construction, then read-only
    std::atomic<std::uint64_t> tick{0};  ///< recency clock, one per touch
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  Shard& shard_for(const CacheKey& key);

  std::size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dbr::service
