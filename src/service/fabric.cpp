#include "service/fabric.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/require.hpp"

namespace dbr::service {

namespace {

/// SplitMix64 finalizer: the deterministic, platform-independent mix every
/// ring point derives from.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void accumulate(core::DistributedFfcStats& into,
                const core::DistributedFfcStats& from) {
  into.probe_rounds += from.probe_rounds;
  into.broadcast_rounds += from.broadcast_rounds;
  into.dossier_rounds += from.dossier_rounds;
  into.announce_rounds += from.announce_rounds;
  into.reroute_rounds += from.reroute_rounds;
  into.messages += from.messages;
}

}  // namespace

// ---------------------------------------------------------------------------
// HashRing

HashRing::HashRing(std::size_t vnodes_per_shard) : vnodes_(vnodes_per_shard) {
  require(vnodes_ >= 1, "HashRing: vnodes_per_shard must be >= 1");
}

std::uint64_t HashRing::vnode_point(ShardId shard, std::uint32_t vnode) {
  return mix64((static_cast<std::uint64_t>(shard) << 32) | vnode);
}

std::uint64_t HashRing::instance_point(Digit base, unsigned n) {
  return mix64(0xfabfabfabfabfab0ull ^
               ((static_cast<std::uint64_t>(base) << 32) | n));
}

bool HashRing::contains(ShardId shard) const {
  return std::binary_search(shards_.begin(), shards_.end(), shard);
}

void HashRing::add(ShardId shard) {
  require(!contains(shard), "HashRing::add: shard already on the ring");
  shards_.insert(std::lower_bound(shards_.begin(), shards_.end(), shard),
                 shard);
  ring_.reserve(ring_.size() + vnodes_);
  for (std::uint32_t v = 0; v < vnodes_; ++v) {
    ring_.emplace_back(vnode_point(shard, v), shard);
  }
  // Ties (two shards hashing a vnode to the same point) break by shard id,
  // so placement stays deterministic no matter the insertion order.
  std::sort(ring_.begin(), ring_.end());
}

void HashRing::remove(ShardId shard) {
  require(contains(shard), "HashRing::remove: shard not on the ring");
  shards_.erase(std::lower_bound(shards_.begin(), shards_.end(), shard));
  std::erase_if(ring_, [shard](const auto& p) { return p.second == shard; });
}

ShardId HashRing::owner(std::uint64_t point) const {
  require(!empty(), "HashRing::owner: empty ring");
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const auto& entry, std::uint64_t p) { return entry.first < p; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

// ---------------------------------------------------------------------------
// ShardRouter

/// Completion latch of one query_batch call: workers credit it as items
/// finish; the issuing thread waits for the count to drain.
struct ShardRouter::BatchState {
  std::atomic<std::size_t> remaining{0};
  util::Mutex mu;
  util::CondVar cv;
};

ShardRouter::ShardRouter(FabricOptions options) : options_(std::move(options)) {
  require(options_.shards >= 1, "ShardRouter: need at least one shard");
  require(options_.vnodes >= 1, "ShardRouter: need at least one vnode");
  auto ring = std::make_shared<HashRing>(options_.vnodes);
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->id = static_cast<ShardId>(i);
    shard->engine = std::make_unique<EmbedEngine>(options_.engine);
    start_pool(*shard);
    ring->add(shard->id);
    shards_.push_back(std::move(shard));
  }
  {
    const util::MutexLock lk(ring_mu_);
    ring_.publish(std::move(ring));
  }
  {
    const util::MutexLock lk(keys_mu_);
    keys_.publish(std::make_shared<KeySet>());
  }
}

ShardRouter::~ShardRouter() {
  for (auto& shard : shards_) stop_pool(*shard);
}

void ShardRouter::start_pool(Shard& shard) {
  {
    const util::MutexLock lk(shard.mu);
    shard.accepting = true;
    shard.stopping = false;
  }
  for (std::size_t w = 0; w < options_.workers_per_shard; ++w) {
    shard.workers.emplace_back([this, &shard] { worker_loop(shard); });
  }
}

void ShardRouter::stop_pool(Shard& shard) {
  {
    const util::MutexLock lk(shard.mu);
    shard.accepting = false;
    shard.stopping = true;
  }
  shard.cv.notify_all();
  for (std::thread& t : shard.workers) {
    if (t.joinable()) t.join();
  }
  shard.workers.clear();
}

void ShardRouter::worker_loop(Shard& shard) {
  for (;;) {
    BatchItem item;
    {
      util::UniqueLock lk(shard.mu);
      // While-loop (not a wait predicate): the condition reads then happen
      // directly under the held capability, where the analysis checks them.
      while (!shard.stopping && shard.queue.empty()) shard.cv.wait(lk);
      if (shard.queue.empty()) return;  // stopping and drained
      item = shard.queue.front();
      shard.queue.pop_front();
    }
    try {
      *item.response = shard.engine->query(*item.request);
    } catch (const std::exception& e) {
      auto failed = std::make_shared<EmbedResult>();
      failed->status = EmbedStatus::kInternalError;
      failed->error = e.what();
      item.response->result = std::move(failed);
    }
    {
      // Decrement under the latch mutex: the issuing thread can then only
      // observe zero (and destroy the latch) after this critical section,
      // so no worker ever touches a dead BatchState.
      const util::MutexLock lk(item.batch->mu);
      if (item.batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        item.batch->cv.notify_all();
      }
    }
  }
}

void ShardRouter::observe(Digit base, unsigned n) {
  const std::uint64_t key = key_of(base, n);
  {
    util::RcuSnapshot<KeySet>::ReadGuard guard(keys_);
    if (guard->contains(key)) return;
  }
  const util::MutexLock lk(keys_mu_);
  // Writers are serialized, so re-reading the snapshot under the lock sees
  // the authoritative set (a racing writer may have inserted our key). The
  // guard is scoped: publish() may wait for in-flight readers to drain, so
  // it must never run under this thread's own ReadGuard.
  std::shared_ptr<KeySet> next;
  {
    util::RcuSnapshot<KeySet>::ReadGuard guard(keys_);
    if (guard->contains(key)) return;
    next = std::make_shared<KeySet>(*guard);
  }
  next->insert(key);
  keys_.publish(std::move(next));
}

ShardRouter::Shard& ShardRouter::route(const EmbedRequest& request) {
  observe(request.base, request.n);
  util::RcuSnapshot<HashRing>::ReadGuard ring(ring_);
  Shard& shard =
      *shards_[ring->owner(HashRing::instance_point(request.base, request.n))];
  shard.queries.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

EmbedResponse ShardRouter::query(const EmbedRequest& request) {
  return route(request).engine->query(request);
}

void ShardRouter::submit(const BatchItem& item) {
  for (;;) {
    Shard& shard = route(*item.request);
    {
      const util::MutexLock lk(shard.mu);
      if (shard.accepting) {
        shard.queue.push_back(item);
        shard.cv.notify_one();
        return;
      }
    }
    // Routed onto a shard that is draining. kill_shard publishes the
    // victim-free ring *before* it stops accepting, so the re-route below
    // cannot pick this shard again.
    std::this_thread::yield();
  }
}

std::vector<EmbedResponse> ShardRouter::query_batch(
    std::span<const EmbedRequest> requests) {
  std::vector<EmbedResponse> responses(requests.size());
  if (requests.empty()) return responses;
  if (options_.workers_per_shard == 0) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      responses[i] = query(requests[i]);
    }
    return responses;
  }
  BatchState batch;
  batch.remaining.store(requests.size(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    submit(BatchItem{&requests[i], &responses[i], &batch});
  }
  {
    util::UniqueLock lk(batch.mu);
    while (batch.remaining.load(std::memory_order_acquire) != 0) {
      batch.cv.wait(lk);
    }
  }
  return responses;
}

void ShardRouter::warm_context(Shard& shard, Digit base, unsigned n) {
  try {
    shard.engine->context_cache().get_or_build(base, n);
  } catch (const precondition_error&) {
    // An invalid instance was observed in traffic (its queries fail fast
    // with kBadRequest); there is nothing to rebuild for it.
  }
}

void ShardRouter::kill_shard(ShardId shard) {
  const util::MutexLock admin(admin_mu_);
  require(shard < shards_.size(), "kill_shard: shard id out of range");
  Shard& victim = *shards_[shard];
  require(victim.alive.load(std::memory_order_acquire),
          "kill_shard: shard is already dead");
  // Republish the victim-free ring first: from here no route() picks the
  // victim, and the minimal arc (the victim's own points) falls to its
  // successors.
  HashRing old_ring(options_.vnodes);
  std::shared_ptr<const HashRing> next;
  {
    const util::MutexLock lk(ring_mu_);
    std::shared_ptr<HashRing> copy;
    {
      // Scoped: publish() below may wait for readers to drain, so it must
      // not run under this thread's own ReadGuard.
      util::RcuSnapshot<HashRing>::ReadGuard guard(ring_);
      require(guard->shard_count() > 1,
              "kill_shard: cannot kill the last shard");
      old_ring = *guard;
      copy = std::make_shared<HashRing>(*guard);
    }
    copy->remove(shard);
    next = copy;
    ring_.publish(std::move(copy));
  }
  // Stop accepting and push the victim's queued work back through the
  // router; it re-routes against the already-published ring.
  std::deque<BatchItem> orphans;
  {
    const util::MutexLock lk(victim.mu);
    victim.accepting = false;
    orphans.swap(victim.queue);
  }
  for (const BatchItem& item : orphans) submit(item);
  // Eagerly rebuild the migrated arc on its new owners, charging each
  // migrated instance the Section-2.4 price of one distributed rebuild.
  ++remap_events_;
  {
    util::RcuSnapshot<KeySet>::ReadGuard keys(keys_);
    for (const std::uint64_t key : *keys) {
      const Digit base = base_of(key);
      const unsigned n = n_of(key);
      const std::uint64_t point = HashRing::instance_point(base, n);
      if (old_ring.owner(point) != shard) continue;  // not on the arc
      ++remapped_keys_;
      accumulate(remap_cost_, core::predict_rebuild_rounds(base, n));
      warm_context(*shards_[next->owner(point)], base, n);
    }
  }
  stop_pool(victim);
  victim.alive.store(false, std::memory_order_release);
}

void ShardRouter::revive_shard(ShardId shard) {
  const util::MutexLock admin(admin_mu_);
  require(shard < shards_.size(), "revive_shard: shard id out of range");
  Shard& revived = *shards_[shard];
  require(!revived.alive.load(std::memory_order_acquire),
          "revive_shard: shard is already alive");
  start_pool(revived);
  ++remap_events_;
  {
    const util::MutexLock lk(ring_mu_);
    std::shared_ptr<HashRing> copy;
    {
      // Scoped for the same reason as in kill_shard: never publish under
      // this thread's own ring_ ReadGuard.
      util::RcuSnapshot<HashRing>::ReadGuard guard(ring_);
      copy = std::make_shared<HashRing>(*guard);
    }
    copy->add(shard);
    // Warm the arc that is about to return to the revived shard *before*
    // publishing, so routed reads never miss a context the old owner had.
    util::RcuSnapshot<KeySet>::ReadGuard keys(keys_);
    for (const std::uint64_t key : *keys) {
      const Digit base = base_of(key);
      const unsigned n = n_of(key);
      if (copy->owner(HashRing::instance_point(base, n)) != shard) continue;
      ++remapped_keys_;
      accumulate(remap_cost_, core::predict_rebuild_rounds(base, n));
      warm_context(revived, base, n);
    }
    ring_.publish(std::move(copy));
  }
  revived.alive.store(true, std::memory_order_release);
}

bool ShardRouter::shard_alive(ShardId shard) const {
  require(shard < shards_.size(), "shard_alive: shard id out of range");
  return shards_[shard]->alive.load(std::memory_order_acquire);
}

std::size_t ShardRouter::alive_count() const {
  util::RcuSnapshot<HashRing>::ReadGuard ring(ring_);
  return ring->shard_count();
}

ShardId ShardRouter::owner_of(Digit base, unsigned n) const {
  util::RcuSnapshot<HashRing>::ReadGuard ring(ring_);
  return ring->owner(HashRing::instance_point(base, n));
}

EmbedEngine& ShardRouter::engine_for(Digit base, unsigned n) {
  return *shards_[owner_of(base, n)]->engine;
}

EmbedEngine& ShardRouter::shard_engine(ShardId shard) {
  require(shard < shards_.size(), "shard_engine: shard id out of range");
  return *shards_[shard]->engine;
}

FabricStats ShardRouter::stats() const {
  FabricStats out;
  const util::MutexLock admin(admin_mu_);
  out.remap_events = remap_events_;
  out.remapped_keys = remapped_keys_;
  out.remap_cost = remap_cost_;
  std::vector<std::uint64_t> owned(shards_.size(), 0);
  {
    util::RcuSnapshot<HashRing>::ReadGuard ring(ring_);
    util::RcuSnapshot<KeySet>::ReadGuard keys(keys_);
    for (const std::uint64_t key : *keys) {
      owned[ring->owner(HashRing::instance_point(base_of(key), n_of(key)))]++;
    }
  }
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    FabricShardStats s;
    s.shard = shard->id;
    s.alive = shard->alive.load(std::memory_order_acquire);
    s.keys_owned = owned[shard->id];
    s.queries = shard->queries.load(std::memory_order_relaxed);
    s.engine = shard->engine->stats_snapshot();
    out.queries += s.queries;
    out.shards.push_back(std::move(s));
  }
  return out;
}

EngineStatsSnapshot ShardRouter::aggregate_engine_stats() const {
  EngineStatsSnapshot total;
  for (const auto& shard : shards_) {
    const EngineStatsSnapshot s = shard->engine->stats_snapshot();
    total.serve.queries += s.serve.queries;
    total.serve.result_hits += s.serve.result_hits;
    total.serve.context_hits += s.serve.context_hits;
    total.serve.context_misses += s.serve.context_misses;
    total.cache.hits += s.cache.hits;
    total.cache.misses += s.cache.misses;
    total.cache.evictions += s.cache.evictions;
    total.cache.entries += s.cache.entries;
    total.contexts.hits += s.contexts.hits;
    total.contexts.misses += s.contexts.misses;
    total.contexts.entries += s.contexts.entries;
    total.validation.checked += s.validation.checked;
    total.validation.violations += s.validation.violations;
  }
  return total;
}

}  // namespace dbr::service
