#include "service/cache.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace dbr::service {

CacheKey canonical_key(const EmbedRequest& request) {
  CacheKey key;
  key.base = request.base;
  key.n = request.n;
  key.fault_kind = request.fault_kind;
  key.strategy = resolve_strategy(request);
  // FaultSet::canonicalize is the one canonicalization: sort + dedup each
  // kind, then (kMixed) drop edge faults dominated by a node fault. For the
  // homogeneous kinds edge_faults is passed through untouched, so a request
  // that illegally populates it stays distinguishable and gets rejected.
  FaultSet set;
  set.nodes = request.faults;
  set.edges = request.edge_faults;
  if (request.fault_kind == FaultKind::kMixed) {
    set.canonicalize(request.base, request.n);
  } else {
    std::sort(set.nodes.begin(), set.nodes.end());
    set.nodes.erase(std::unique(set.nodes.begin(), set.nodes.end()),
                    set.nodes.end());
  }
  key.faults = std::move(set.nodes);
  key.edge_faults = std::move(set.edges);
  return key;
}

EmbedRequest to_request(const CacheKey& key) {
  EmbedRequest request;
  request.base = key.base;
  request.n = key.n;
  request.fault_kind = key.fault_kind;
  request.faults = key.faults;
  request.edge_faults = key.edge_faults;
  request.strategy = key.strategy;
  return request;
}

namespace {

// SplitMix64 finalizer; strong enough to spread sequential words across
// shards and hash buckets.
inline std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline std::uint64_t combine(std::uint64_t seed, std::uint64_t v) {
  return mix(seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2)));
}

}  // namespace

std::size_t CacheKeyHash::operator()(const CacheKey& key) const {
  std::uint64_t h = combine(0x8f1bbcdcu, key.base);
  h = combine(h, key.n);
  h = combine(h, static_cast<std::uint64_t>(key.fault_kind));
  h = combine(h, static_cast<std::uint64_t>(key.strategy));
  // The list length separates the two word streams: without it, a mixed key
  // with nodes [a, b] and no edges would collide with nodes [a], edges [b].
  h = combine(h, key.faults.size());
  for (Word w : key.faults) h = combine(h, w);
  for (Word w : key.edge_faults) h = combine(h, w);
  return static_cast<std::size_t>(h);
}

ShardedLruCache::ShardedLruCache(std::size_t capacity, std::size_t shard_count)
    : capacity_(capacity) {
  require(shard_count >= 1, "ShardedLruCache requires at least one shard");
  require(capacity >= 1, "ShardedLruCache requires capacity >= 1");
  shard_count = std::min(shard_count, capacity);
  shards_.reserve(shard_count);
  // Distribute the budget exactly: the first (capacity % shard_count) shards
  // take one extra entry, so shard capacities sum to `capacity`.
  const std::size_t per_shard = capacity / shard_count;
  const std::size_t remainder = capacity % shard_count;
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = per_shard + (i < remainder ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

ShardedLruCache::Shard& ShardedLruCache::shard_for(const CacheKey& key) {
  return *shards_[CacheKeyHash()(key) % shards_.size()];
}

std::shared_ptr<const EmbedResult> ShardedLruCache::get(const CacheKey& key) {
  Shard& shard = shard_for(key);
  // Read side: resolve against the published snapshot only. The shared
  // Entry lets the hit refresh recency with one relaxed atomic store — the
  // eviction scan under the writer mutex reads the same atomic, so exact
  // LRU order survives without the reader ever taking that mutex.
  if (const util::RcuSnapshot<Shard::Map>::ReadGuard snap{shard.snapshot}) {
    const auto it = snap->find(key);
    if (it != snap->end()) {
      it->second->last_used.store(
          shard.tick.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return it->second->value;
    }
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ShardedLruCache::put(const CacheKey& key,
                          std::shared_ptr<const EmbedResult> value) {
  Shard& shard = shard_for(key);
  const util::MutexLock lock(shard.mu);
  // Insert or refresh with a *new* Entry (RCU: readers of the displaced
  // entry — still reachable through older snapshots — are undisturbed).
  shard.index[key] = std::make_shared<Entry>(
      std::move(value), shard.tick.fetch_add(1, std::memory_order_relaxed) + 1);
  if (shard.index.size() > shard.capacity) {
    // Evict the minimum recency tick: ticks are unique per shard, so this
    // is exactly the victim a recency list would name, and the entry just
    // written holds the maximum tick — never its own victim.
    auto victim = shard.index.begin();
    std::uint64_t oldest = ~std::uint64_t{0};
    for (auto it = shard.index.begin(); it != shard.index.end(); ++it) {
      const std::uint64_t t = it->second->last_used.load(std::memory_order_relaxed);
      if (t < oldest) {
        oldest = t;
        victim = it;
      }
    }
    shard.index.erase(victim);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  shard.snapshot.publish(std::make_shared<const Shard::Map>(shard.index));
}

void ShardedLruCache::clear() {
  // A cleared cache starts a fresh observation window: entries AND the
  // hit/miss/eviction counters reset, so post-clear stats are attributable
  // to post-clear traffic.
  for (auto& shard : shards_) {
    const util::MutexLock lock(shard->mu);
    shard->index.clear();
    shard->snapshot.publish(nullptr);
    shard->hits.store(0, std::memory_order_relaxed);
    shard->misses.store(0, std::memory_order_relaxed);
    shard->evictions.store(0, std::memory_order_relaxed);
  }
}

std::size_t ShardedLruCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mu);
    total += shard->index.size();
  }
  return total;
}

CacheStats ShardedLruCache::stats() const {
  CacheStats out;
  for (const auto& shard : shards_) {
    out.hits += shard->hits.load(std::memory_order_relaxed);
    out.misses += shard->misses.load(std::memory_order_relaxed);
    out.evictions += shard->evictions.load(std::memory_order_relaxed);
    const util::MutexLock lock(shard->mu);
    out.entries += shard->index.size();
  }
  return out;
}

}  // namespace dbr::service
