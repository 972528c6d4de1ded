#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "butterfly/butterfly.hpp"
#include "core/instance_context.hpp"

namespace dbr::core {

/// Fault-tolerant ring embedding in the butterfly F(d,n) (Section 3.4).
/// Requires gcd(d, n) = 1, the condition under which the lift Phi maps
/// Hamiltonian cycles of B(d,n) to Hamiltonian cycles of F(d,n)
/// (LCM(d^n, n) = n d^n).

/// Proposition 3.5: a Hamiltonian cycle of F(d,n) avoiding the given faulty
/// butterfly edges; guaranteed whenever the fault count is at most
/// MAX(psi(d)-1, phi_edge_bound(d)). Faulty edges are (tail, head) node-id
/// pairs; each is pulled back to its De Bruijn edge, a fault-free De Bruijn
/// Hamiltonian cycle is constructed, and the result lifted with Phi.
std::optional<std::vector<NodeId>> butterfly_fault_free_hc(
    const ButterflyDigraph& bf,
    std::span<const std::pair<NodeId, NodeId>> faulty_edges);

/// Proposition 3.6: psi(d) pairwise edge-disjoint Hamiltonian cycles of
/// F(d,n), obtained by lifting the disjoint De Bruijn family.
std::vector<std::vector<NodeId>> butterfly_disjoint_hcs(const ButterflyDigraph& bf);

/// Context-backed solve phase of Proposition 3.5: the faults are the De
/// Bruijn edge words the faulty butterfly edges pull back to
/// (butterfly::pull_back_edge, Lemma 3.10). Uses the context's butterfly
/// adjacency and shared edge-fault machinery; only the selection and lift
/// are per-solve work. Requires gcd(base, n) = 1.
std::optional<std::vector<NodeId>> solve_butterfly(
    const InstanceContext& ctx, std::span<const Word> debruijn_faults);

}  // namespace dbr::core
