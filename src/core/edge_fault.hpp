#pragma once

#include <optional>
#include <span>

#include "core/instance_context.hpp"
#include "debruijn/cycle.hpp"

namespace dbr::core {

/// Edge-fault-tolerant ring embedding (Section 3.3).
///
/// Faulty edges are given as (n+1)-words over Z_d (see WordSpace::edge_word).
/// Each solve returns a Hamiltonian cycle of B(d,n) avoiding every faulty
/// edge, built by one of the paper's two constructions:
///
///  * scan of the psi(d) pairwise disjoint Hamiltonian cycles (sufficient
///    whenever f <= psi(d) - 1, Proposition 3.2), or
///  * the recursive phi(d)-construction (Proposition 3.3): for prime-power
///    d, pick a fault-free shifted maximal cycle s + C (at least d - f of
///    the d shifts are fault-free) and a fault-free insertion pair
///    (alpha s^n, s^n alpha-hat) (the d-1 pairs are pairwise disjoint);
///    for composite d = s*t split the fault set into <= phi(s) and
///    <= phi(t) halves, recurse and Rees-compose.
///
/// Faults on loop edges are harmless: no Hamiltonian cycle traverses a loop.
///
/// Each solve borrows a shared InstanceContext and performs only
/// fault-dependent work: the disjoint-HC family, its inverted edge index and
/// the per-prime-power maximal-cycle machinery are all taken from the
/// context. Every solve requires n >= 2 (the context already enforces
/// d >= 2) and edge words below d^(n+1).

/// Proposition 3.4 dispatch: scan first while f <= psi(d) - 1, then the
/// phi-construction, then the scan again. A result is guaranteed when
/// f <= MAX(psi(d)-1, phi_edge_bound(d)); beyond that both routes are still
/// tried and std::nullopt means both failed.
std::optional<SymbolCycle> solve_edge_auto(const InstanceContext& ctx,
                                           std::span<const Word> faulty_edge_words);

/// psi(d)-family selection via the context's inverted edge index: O(f)
/// lookups instead of a full family scan. nullopt if every member hits a
/// fault.
std::optional<SymbolCycle> solve_edge_scan(const InstanceContext& ctx,
                                           std::span<const Word> faulty_edge_words);

/// The phi(d)-construction alone (Proposition 3.3), using the context's
/// cached maximal-cycle families. nullopt if the recursion cannot place the
/// fault set within the per-factor budgets.
std::optional<SymbolCycle> solve_edge_phi(const InstanceContext& ctx,
                                          std::span<const Word> faulty_edge_words);

}  // namespace dbr::core
