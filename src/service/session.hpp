#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/solve_scratch.hpp"
#include "service/cache.hpp"
#include "service/engine.hpp"
#include "service/types.hpp"

namespace dbr::service {

/// Counters describing one session's fault churn and solve traffic.
struct SessionStats {
  std::uint64_t adds = 0;              ///< add_fault calls that changed the set
  std::uint64_t removes = 0;           ///< clear_fault calls that changed the set
  std::uint64_t noop_mutations = 0;    ///< adds/clears that were already true
  std::uint64_t solves = 0;            ///< current_ring calls that re-solved
  std::uint64_t memoized = 0;          ///< current_ring calls answered in place
  std::uint64_t result_cache_hits = 0; ///< re-solves served by the result cache
  double solve_micros_total = 0.0;     ///< serve time summed over re-solves
};

/// Counters for the incremental-repair fast path (populated only under
/// EngineOptions::incremental_repair).
struct RepairStats {
  std::uint64_t spliced = 0;    ///< deltas served by splicing the prior ring
  std::uint64_t fell_back = 0;  ///< attempts that declined to a full solve
  /// fell_back attempts vetoed by the validate_responses oracle (always a
  /// subset of fell_back; any nonzero value is a repair bug worth a report).
  std::uint64_t oracle_rejections = 0;
  double repair_micros_total = 0.0;  ///< serve time summed over splices
};

/// A stateful embedding session over one instance of a production network
/// whose fault set evolves over time (the fault-churn regime). A
/// FaultKind::kMixed session tracks dead routers and cut links in one
/// timeline: add/clear take the fault kind, and the solve path serves the
/// combined set through the mixed-fault strategy.
///
/// The session pins its instance's shared InstanceContext at construction,
/// holds a live canonical fault set, and re-solves incrementally:
///  * mutations (add_fault / clear_fault) maintain the sorted distinct set
///    in place - no per-query canonicalization (the one exception: a mixed
///    session drops node-dominated edge faults when keying a solve, so its
///    answers and cache entries match the stateless engine exactly);
///  * current_ring() re-solves only when the *canonical solve set* changed
///    since the last call: an untouched set, or churn that round-trips back
///    to it (a dominated link cut added and removed), is answered from the
///    memoized response without consulting the engine;
///  * under EngineOptions::incremental_repair, a changed set first tries
///    the core/repair splice of the previous ring across the fault delta
///    (necklace excision/reinsertion, pull-back detours) and only falls
///    back to a full engine solve when the repair declines — see
///    RepairStats and EmbedResponse::repaired;
///  * full solves go through the engine's result cache (so revisited fault
///    states - an add undone by a clear - are served from cache), against
///    the pinned context (so no re-solve ever pays per-instance
///    precompute).
///
/// With incremental_repair off (the default), answers are identical to a
/// fresh EmbedEngine::query on the same instance and fault set. With it
/// on, a repaired answer is validity- and envelope-equivalent to that
/// query but may be a different valid ring (the splice preserves the
/// previous ring's shape wherever the delta allows).
///
/// Not thread-safe: a session models one network's fault timeline; use one
/// session per thread (they may share one engine, whose caches are
/// thread-safe). The single-thread contract replaces a lock — there is no
/// capability to annotate (docs/CONCURRENCY.md); the net/ server upholds it
/// by executing one connection's ops strictly in order.
class EmbedSession {
 public:
  /// Validates the instance and strategy preconditions up front through the
  /// engine's own gate (require_instance in service/strategy.hpp: fault-kind
  /// match, n >= 2 for edge strategies, gcd(base, n) = 1 for kButterfly),
  /// throwing the precondition_error a fault-free query would answer as
  /// kBadRequest, so a constructed session can never answer kBadRequest.
  /// kAuto resolves by fault kind, exactly like the engine.
  /// The engine must outlive the session.
  EmbedSession(EmbedEngine& engine, Digit base, unsigned n,
               FaultKind fault_kind, Strategy strategy = Strategy::kAuto);

  Digit base() const { return key_.base; }
  unsigned n() const { return key_.n; }
  FaultKind fault_kind() const { return key_.fault_kind; }
  Strategy strategy() const { return key_.strategy; }

  /// The live fault set, sorted and distinct: node words for kNode and
  /// kMixed sessions, edge words for kEdge sessions.
  const std::vector<Word>& faults() const { return key_.faults; }

  /// The live edge-fault set of a kMixed session (sorted, distinct,
  /// uncollapsed: a link cut stays live even while its router is also
  /// dead, so repairing the router resurfaces the cut). Empty for
  /// homogeneous sessions.
  const std::vector<Word>& edge_faults() const { return key_.edge_faults; }

  /// Marks a word of the session's own kind faulty. Homogeneous sessions
  /// only: a kMixed session must name the kind (two-argument overload).
  /// Returns true if the set changed (false when already faulty). Throws
  /// precondition_error when out of range.
  bool add_fault(Word fault);

  /// Marks a node or edge word faulty. `kind` must be kNode or kEdge and,
  /// for a homogeneous session, must match the session's fault kind; a
  /// kMixed session accepts both. Returns true if the set changed.
  bool add_fault(FaultKind kind, Word fault);

  /// Clears a fault (repair) of the session's own kind; homogeneous only.
  /// Returns true if the set changed.
  bool clear_fault(Word fault);

  /// Clears a node or edge fault (router repair / link restore).
  bool clear_fault(FaultKind kind, Word fault);

  /// Drops every fault (full repair), both kinds. A reset of an already
  /// empty session is a cheap no-op (counted in noop_mutations).
  void reset_faults();

  /// The ring for the current fault set. Re-solves only when the canonical
  /// solve set changed since the last call; otherwise answers from the
  /// memoized response. Returned by value (a shared_ptr plus scalars) so
  /// snapshots taken across churn events stay independent.
  EmbedResponse current_ring();

  /// Monotone counter of distinct served rings: bumped exactly when a
  /// current_ring() answer installs a *different* immutable result object
  /// than the previous one (full solve, effective repair splice, or a flip
  /// to kNoEmbedding). Memoized answers, no-op round trips and no-op
  /// splices that re-serve the same result leave it unchanged — so a
  /// routing layer holding per-node forwarding state derived from the ring
  /// (sim/fib.hpp) can compare epochs instead of rings to decide whether
  /// its tables are stale.
  std::uint64_t ring_epoch() const { return ring_epoch_; }

  const SessionStats& stats() const { return stats_; }

  /// Splice-vs-fallback counters of the incremental-repair fast path.
  const RepairStats& repair_stats() const { return repair_stats_; }

  /// The pinned per-instance context (shared with the engine's cache).
  const std::shared_ptr<const core::InstanceContext>& context() const {
    return context_;
  }

 private:
  /// The live word list for `kind` plus its range limit (d^n node words
  /// resp. d^(n+1) edge words). Throws on kind/session mismatch.
  std::pair<std::vector<Word>*, Word> track(FaultKind kind);

  /// Attempts the core/repair splice of last_ across the delta between
  /// solved_key_ and `key`. On success installs the repaired response as
  /// last_ / solved_key_ and returns true; otherwise counts the fallback.
  bool try_repair(const CacheKey& key);

  EmbedEngine* engine_;
  /// Sorted distinct per kind; kMixed sessions keep dominated edge faults
  /// live here and collapse them per-solve (see current_ring).
  CacheKey key_;
  std::shared_ptr<const core::InstanceContext> context_;
  bool dirty_ = true;
  EmbedResponse last_;
  /// The canonical solve set last_ answers, valid only when have_solved_
  /// (last_ holds a deterministic kOk/kNoEmbedding answer): the delta base
  /// for repair and the no-op round-trip memo guard.
  CacheKey solved_key_;
  bool have_solved_ = false;
  std::uint64_t ring_epoch_ = 0;  ///< bumped per distinct served result
  SessionStats stats_;
  RepairStats repair_stats_;
  /// Session-owned solve/repair arena: the splice fast path reuses these
  /// buffers across the whole churn timeline (sessions are single-threaded,
  /// so no TLS indirection is needed).
  core::SolveScratch scratch_;
};

}  // namespace dbr::service
