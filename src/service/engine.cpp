#include "service/engine.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/instance_context.hpp"
#include "service/strategy.hpp"
#include "util/parallel.hpp"
#include "util/require.hpp"
#include "verify/oracle.hpp"

namespace dbr::service {

EmbedEngine::EmbedEngine(EngineOptions options)
    : options_(options),
      cache_(std::make_unique<ShardedLruCache>(
          std::max<std::size_t>(1, options.cache_capacity),
          std::max<std::size_t>(1, options.cache_shards))),
      contexts_(std::make_unique<ContextCache>(
          std::max<std::size_t>(1, options.context_cache_capacity))) {}

std::shared_ptr<const EmbedResult> EmbedEngine::compute(
    const CacheKey& key, bool* context_hit,
    const core::InstanceContext* pinned) const {
  // The fault-dependent solve phase: acquire the instance's shared context,
  // check the strategy's preconditions, run its solve entry
  // (service/strategy.hpp). Context acquisition sits inside the try block
  // so an invalid (base, n) maps to kBadRequest like any precondition.
  const Clock::time_point start = Clock::now();
  if (context_hit != nullptr) *context_hit = pinned != nullptr;
  std::shared_ptr<const core::InstanceContext> owned;  // outlives the solve
  EmbedResult out;
  try {
    if (pinned == nullptr) {
      owned = options_.reuse_contexts
                  ? contexts_->get_or_build(key.base, key.n, context_hit)
                  : core::InstanceContext::make(key.base, key.n);
    }
    const core::InstanceContext& ctx = pinned != nullptr ? *pinned : *owned;
    require_instance(key, ctx.words());
    out = strategy_ops(key.strategy).solve(ctx, key);
  } catch (const precondition_error& e) {
    out.status = EmbedStatus::kBadRequest;
    out.error = e.what();
  } catch (const std::exception& e) {
    // Invariant failures and transient conditions (e.g. bad_alloc) are not
    // deterministic answers; kInternalError keeps them out of the cache.
    out.status = EmbedStatus::kInternalError;
    out.error = e.what();
  }
  out.strategy_used = key.strategy;
  out.compute_micros = micros_since(start);
  auto result = std::make_shared<const EmbedResult>(std::move(out));
  if (!options_.validate_responses) return result;

  // Debug mode: hand every computed answer to the independent oracle. The
  // canonical key is a complete request, so the oracle sees exactly the
  // instance that was dispatched.
  const verify::OracleReport report =
      verify::check_response(to_request(key), *result);
  validations_.fetch_add(1, std::memory_order_relaxed);
  if (report.ok()) return result;

  violations_.fetch_add(1, std::memory_order_relaxed);
  EmbedResult quarantined;
  quarantined.status = EmbedStatus::kInternalError;  // never cached
  quarantined.strategy_used = result->strategy_used;
  quarantined.compute_micros = result->compute_micros;
  quarantined.error = "oracle: " + report.to_string();
  quarantined.quarantined = true;  // batch stats count, never time, these
  return std::make_shared<const EmbedResult>(std::move(quarantined));
}

ValidationStats EmbedEngine::validation_stats() const {
  return {validations_.load(std::memory_order_relaxed),
          violations_.load(std::memory_order_relaxed)};
}

void EmbedEngine::clear_cache() {
  // Seqlock write side: hold the epoch odd across the cache clear and the
  // counter resets so a concurrent stats_snapshot() retries instead of
  // observing half-reset state (e.g. fresh queries with stale result_hits).
  stats_epoch_.fetch_add(1, std::memory_order_acq_rel);
  // The ServeStats layer must restart with the cache it describes: stale
  // result_hits over a fresh query count would let a post-clear hit_rate
  // exceed 1.0 in throughput reports. Reset order matters even inside the
  // odd-epoch window, because queries keep flowing during the clear:
  // denominators (queries) reset first, hit counters after, and the shard
  // counters of the cache itself last. Traffic interleaving with the clear
  // then regrows every numerator only *alongside* an already-reset
  // denominator, so the post-clear state keeps hit counts within an
  // in-flight-thread bound of the query count — the reverse order would let
  // a preempted clear strand thousands of regrown cache hits against a
  // zeroed query count.
  queries_.store(0, std::memory_order_relaxed);
  result_hits_.store(0, std::memory_order_relaxed);
  context_hits_.store(0, std::memory_order_relaxed);
  context_misses_.store(0, std::memory_order_relaxed);
  cache_->clear();
  stats_epoch_.fetch_add(1, std::memory_order_release);
}

EngineStatsSnapshot EmbedEngine::stats_snapshot() const {
  for (;;) {
    const std::uint64_t before = stats_epoch_.load(std::memory_order_acquire);
    if (before & 1) {  // a clear is mid-flight; wait it out
      std::this_thread::yield();
      continue;
    }
    EngineStatsSnapshot snap;
    // Read counters in *reverse* increment order (a query bumps queries_
    // first, then its hit counters): numerators are captured before their
    // denominator, so concurrent traffic between the loads can only make
    // the later-read query count larger — hit counts never overshoot it,
    // even when the reader is preempted mid-snapshot.
    snap.cache = cache_->stats();
    snap.contexts = contexts_->stats();
    snap.validation = validation_stats();
    snap.serve.result_hits = result_hits_.load(std::memory_order_relaxed);
    snap.serve.context_hits = context_hits_.load(std::memory_order_relaxed);
    snap.serve.context_misses = context_misses_.load(std::memory_order_relaxed);
    snap.serve.queries = queries_.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (stats_epoch_.load(std::memory_order_relaxed) == before) return snap;
  }
}

ServeStats EmbedEngine::serve_stats() const {
  ServeStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.result_hits = result_hits_.load(std::memory_order_relaxed);
  s.context_hits = context_hits_.load(std::memory_order_relaxed);
  s.context_misses = context_misses_.load(std::memory_order_relaxed);
  return s;
}

std::shared_ptr<const EmbedResult> EmbedEngine::compute_uncached(
    const EmbedRequest& request) const {
  return compute(canonical_key(request), nullptr);
}

EmbedResponse EmbedEngine::serve_computed(const CacheKey& key,
                                          bool* context_hit,
                                          const core::InstanceContext* pinned) {
  const Clock::time_point start = Clock::now();
  queries_.fetch_add(1, std::memory_order_relaxed);
  EmbedResponse response;
  if (options_.enable_cache) {
    if (std::shared_ptr<const EmbedResult> hit = cache_->get(key)) {
      result_hits_.fetch_add(1, std::memory_order_relaxed);
      response.result = std::move(hit);
      response.cache_hit = true;
      response.latency_micros = micros_since(start);
      return response;
    }
  }
  bool ctx_hit = false;
  std::shared_ptr<const EmbedResult> computed = compute(key, &ctx_hit, pinned);
  (ctx_hit ? context_hits_ : context_misses_)
      .fetch_add(1, std::memory_order_relaxed);
  response.context_cache_hit = ctx_hit;
  if (context_hit != nullptr) *context_hit = ctx_hit;
  // Only deterministic answers are cacheable: bad requests fail fast and
  // internal errors may be transient (memory pressure, library bugs).
  if (options_.enable_cache && (computed->status == EmbedStatus::kOk ||
                                computed->status == EmbedStatus::kNoEmbedding)) {
    cache_->put(key, computed);
  }
  response.result = std::move(computed);
  response.latency_micros = micros_since(start);
  return response;
}

EmbedResponse EmbedEngine::query(const EmbedRequest& request) {
  return serve_computed(canonical_key(request), nullptr, nullptr);
}

EmbedResponse EmbedEngine::query_with_context(
    const CacheKey& key, std::shared_ptr<const core::InstanceContext> context) {
  require(context != nullptr, "query_with_context requires a context");
  require(context->base() == key.base && context->words().length() == key.n,
          "pinned context does not match the request instance");
  return serve_computed(key, nullptr, context.get());
}

std::vector<EmbedResponse> EmbedEngine::query_batch(
    std::span<const EmbedRequest> requests, BatchStats* stats) {
  std::vector<EmbedResponse> responses(requests.size());
  const std::size_t worker_slots = std::max<std::size_t>(
      1, std::min<std::size_t>(worker_count(), requests.size()));
  std::vector<WorkerStats> workers(worker_slots);

  const Clock::time_point start = Clock::now();
  parallel_blocks(requests.size(), [&](std::size_t worker, std::size_t begin,
                                       std::size_t end) {
    WorkerStats& w = workers[worker];
    w.worker = worker;
    const Clock::time_point busy_start = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      responses[i] = query(requests[i]);
      ++w.processed;
      if (responses[i].cache_hit) ++w.cache_hits;
      if (responses[i].context_cache_hit) ++w.context_hits;
      if (responses[i].result && responses[i].result->quarantined) {
        ++w.quarantined;  // a vetoed answer is not a served query
      } else {
        w.latency.record(responses[i].latency_micros);
      }
    }
    w.busy_micros = micros_since(busy_start);
  });
  const double wall = micros_since(start);

  if (stats != nullptr) {
    stats->workers = std::move(workers);
    stats->wall_micros = wall;
  }
  return responses;
}

}  // namespace dbr::service
