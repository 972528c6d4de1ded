#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/instance_context.hpp"
#include "core/solve_scratch.hpp"
#include "debruijn/cycle.hpp"
#include "debruijn/debruijn.hpp"
#include "debruijn/necklaces.hpp"

namespace dbr::core {

/// A labeled necklace-tree edge (used for both the spanning tree T and the
/// modified tree D of the FFC algorithm).
struct LabeledEdge {
  Word from;
  Word to;
  Word label;

  auto operator<=>(const LabeledEdge&) const = default;
};

/// Everything the FFC algorithm produces, including the intermediate
/// structures needed to reproduce Figures 2.1-2.4 and to audit the proof
/// obligations of Section 2.3.
struct FfcResult {
  NodeCycle cycle;  ///< H, starting at the root; Hamiltonian on B*.
  Word root = 0;    ///< The distinguished node R (a necklace representative).
  std::uint64_t bstar_size = 0;          ///< |B*| == cycle length.
  std::uint32_t root_eccentricity = 0;   ///< max directed distance from R in B*.
  std::vector<Word> faulty_necklace_reps;  ///< reps of removed necklaces
  std::uint64_t faulty_node_count = 0;     ///< N_F: nodes in faulty necklaces
  std::uint64_t necklace_count = 0;        ///< necklaces forming B*
  std::vector<LabeledEdge> tree_edges;      ///< T (Step 1)
  std::vector<LabeledEdge> modified_edges;  ///< D (Step 2)
};

/// Optional knobs of the FFC solve.
struct FfcOptions {
  /// Root override. Must be a nonfaulty node; its minimal rotation is used
  /// as R and the cycle is constructed in R's component. When absent the
  /// solver works in the largest component of B(d,n) minus the faulty
  /// necklaces (ties toward the component containing the smallest node) and
  /// roots at that component's smallest node.
  std::optional<Word> root;
};

/// The paper's guarantee envelope on |H| for `fault_count` distinct faulty
/// nodes in B(d,n): Proposition 2.2 gives |H| >= d^n - n*f when f <= d - 2,
/// Proposition 2.3 gives |H| >= 2^n - (n+1) for a single fault in B(2,n);
/// outside both regimes the lower bound degrades to 0 (the surviving
/// component can be arbitrarily small). The upper bound is d^n - f: each
/// faulty node removes at least itself. Returns {lower, upper}.
std::pair<std::uint64_t, std::uint64_t> ffc_cycle_length_bounds(
    Digit d, unsigned n, std::uint64_t fault_count);

/// Node-fault-tolerant ring embedding: the FFC algorithm of Chapter 2.
///
/// Given a set of faulty nodes (locations need not be distinct), removes
/// every necklace containing a fault and stitches the remaining necklaces of
/// the surviving component B* into a single cycle H via a spanning tree of
/// the necklace adjacency graph. H has unit dilation and congestion: it is a
/// subgraph of the faulty graph.
///
/// Guarantees reproduced from the paper, enforced by tests:
///  * H is a Hamiltonian cycle of B* (Proposition 2.1).
///  * |H| >= d^n - nf and eccentricity <= 2n when f <= d-2 (Proposition 2.2).
///  * |H| >= 2^n - (n+1) for a single fault in B(2,n) (Proposition 2.3).
///
/// The solve borrows the shared InstanceContext (necklace and label-merge
/// tables) and pays only fault-dependent work, in a reusable scratch arena,
/// so a warm solve allocates only its result. Every tie-break (broadcast
/// min-predecessor parents, largest-component max-size/min-node selection,
/// Step-2 ascending member order) is order-independent, so the result is
/// fully determined by (instance, faults, options).
FfcResult solve_ffc(const InstanceContext& ctx, std::span<const Word> faulty_nodes,
                    SolveScratch& scratch, const FfcOptions& options = {});

/// solve_ffc on the calling thread's scratch arena (solve_scratch_tls);
/// sessions that own an arena pass it to the overload above.
FfcResult solve_ffc(const InstanceContext& ctx, std::span<const Word> faulty_nodes,
                    const FfcOptions& options = {});

}  // namespace dbr::core
