#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "butterfly/butterfly.hpp"
#include "core/instance_context.hpp"

namespace dbr::core {

/// Fault-tolerant ring embedding in the butterfly F(d,n) (Section 3.4).
/// Requires gcd(d, n) = 1, the condition under which the lift Phi maps
/// Hamiltonian cycles of B(d,n) to Hamiltonian cycles of F(d,n)
/// (LCM(d^n, n) = n d^n).

/// Proposition 3.6: psi(d) pairwise edge-disjoint Hamiltonian cycles of
/// F(d,n), obtained by lifting the disjoint De Bruijn family.
std::vector<std::vector<NodeId>> butterfly_disjoint_hcs(const ButterflyDigraph& bf);

/// Proposition 3.5: a Hamiltonian cycle of F(d,n) avoiding the given faulty
/// butterfly edges; guaranteed whenever the fault count is at most
/// MAX(psi(d)-1, phi_edge_bound(d)). The faults are the De Bruijn edge words
/// the faulty butterfly edges pull back to (butterfly::pull_back_edge,
/// Lemma 3.10): a De Bruijn cycle avoiding U -> V lifts to a butterfly cycle
/// avoiding all n copies of it. A fault-free De Bruijn Hamiltonian cycle is
/// constructed (solve_edge_auto) and lifted with Phi, using the context's
/// butterfly adjacency. Requires gcd(base, n) = 1.
std::optional<std::vector<NodeId>> solve_butterfly(
    const InstanceContext& ctx, std::span<const Word> debruijn_faults);

}  // namespace dbr::core
