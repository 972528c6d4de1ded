#pragma once

/// \file
/// The strategy table: one constant descriptor per concrete Strategy, and
/// the single place in the service that says which fault kind, which n,
/// which core solve and which core repair each strategy takes. The engine's
/// solve path, the session's constructor and its repair fast path all
/// dispatch through it:
///
///   kFfc        node faults   -> core::solve_ffc (Chapter 2)
///   kEdgeAuto   edge faults   -> core::solve_edge_auto
///   kEdgeScan   edge faults   -> core::solve_edge_scan
///   kEdgePhi    edge faults   -> core::solve_edge_phi
///   kButterfly  edge faults   -> core::solve_butterfly: solve_edge_auto
///                                lifted to F(d,n) (requires gcd(d, n) = 1,
///                                Proposition 3.5)
///   kMixed      node + edge   -> core::solve_mixed (Hamiltonian route for
///                                node-free sets, FFC pull-back otherwise)
///
/// The verify/ oracle re-derives every envelope with its own, independent
/// table, so a wrong row here cannot also fool the judge.

#include "core/repair.hpp"
#include "service/types.hpp"

namespace dbr::service {

/// Canonical cache identity of a request (defined in service/cache.hpp).
struct CacheKey;

/// A strategy's solve entry: the ring for the canonical `key` with the
/// paper's length envelope (§2 for FFC, §3 for the Hamiltonian routes), or
/// kNoEmbedding. The caller stamps strategy_used and compute_micros.
using SolveFn = EmbedResult (*)(const core::InstanceContext& ctx,
                                const CacheKey& key);

/// A strategy's repair entry: the core/repair splice of `ring` (solved for
/// `solved`) across the delta to `target`, in the caller's scratch arena.
using RepairFn = core::RepairOutcome (*)(const core::InstanceContext& ctx,
                                         const NodeCycle& ring,
                                         const CacheKey& solved,
                                         const CacheKey& target,
                                         core::SolveScratch& scratch);

/// One row of the strategy table: everything the service needs to check,
/// solve and repair a query of one concrete strategy.
struct StrategyOps {
  Strategy strategy;               ///< the row's own index (never kAuto).
  const char* name;                ///< to_string(strategy).
  FaultKind fault_kind;            ///< the only fault kind it accepts.
  const char* fault_kind_message;  ///< precondition text on a kind mismatch.
  unsigned min_n;                  ///< smallest tuple length it accepts.
  const char* min_n_message;       ///< precondition text when n < min_n.
  bool needs_coprime;              ///< requires gcd(d, n) = 1 (the lift).
  SolveFn solve;                   ///< the construction (see SolveFn).
  RepairFn repair;                 ///< the incremental splice (see RepairFn).
};

/// The descriptor of a concrete strategy. kAuto (or any value outside the
/// enum) is an invariant failure: resolve the strategy first.
const StrategyOps& strategy_ops(Strategy strategy);

/// Resolves kAuto to the concrete strategy implied by the fault kind.
Strategy resolve_strategy(const EmbedRequest& request);

/// Fails fast on every documented precondition of the canonical `key`
/// before any construction runs: edge_faults outside the mixed kind, a
/// strategy/fault-kind mismatch, n below the strategy's minimum, gcd(d, n)
/// != 1 for the butterfly lift, and fault words out of range for `ws`.
/// Each precondition_error names the precondition, so a kBadRequest answer
/// tells the caller exactly what to fix.
void require_instance(const CacheKey& key, const WordSpace& ws);

/// Throws the "fault word ... out of range for B(base,n)" precondition_error
/// unless `word` < `limit`; the message is built only on failure.
void require_fault_word(Word word, Word limit, Digit base, unsigned n);

}  // namespace dbr::service
