// Cross-module integration tests: invariants that tie the FFC algorithm,
// the necklace census, the disjoint-cycle machinery, the simulator and the
// baselines together - the proof obligations of Sections 2.3 and 2.5
// checked on random instances rather than the single worked example.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/disjoint_hc.hpp"
#include "core/distributed_ffc.hpp"
#include "core/edge_fault.hpp"
#include "core/ffc.hpp"
#include "debruijn/cycle.hpp"
#include "debruijn/necklaces.hpp"
#include "graph/euler.hpp"
#include "hypercube/fault_free_cycle.hpp"
#include "necklace/count.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dbr {
namespace {

TEST(Lemma22, ProjectionOfHIsEulerianInD) {
  // For random fault sets: projecting H onto necklace-level moves uses
  // every edge of the modified tree D exactly once (Lemma 2.2's circuit J).
  Rng rng(0x1e22);
  for (auto [d, n] : {std::pair<Digit, unsigned>{3, 4}, {4, 3}, {5, 3}, {2, 8}}) {
    const auto ctx = core::InstanceContext::make(d, n);
    const WordSpace& ws = ctx->words();
    for (unsigned trial = 0; trial < 10; ++trial) {
      const auto faults = rng.sample_distinct(ws.size(), 1 + rng.below(4));
      const auto r = core::solve_ffc(*ctx, faults);
      std::multiset<std::pair<Word, Word>> used;
      for (std::size_t i = 0; i < r.cycle.length(); ++i) {
        const Word u = r.cycle.nodes[i];
        const Word v = r.cycle.nodes[(i + 1) % r.cycle.length()];
        if (ws.min_rotation(u) != ws.min_rotation(v)) {
          used.insert({ws.min_rotation(u), ws.min_rotation(v)});
        }
      }
      std::multiset<std::pair<Word, Word>> expected;
      for (const auto& e : r.modified_edges) expected.insert({e.from, e.to});
      EXPECT_EQ(used, expected);
    }
  }
}

TEST(Lemma21, IncomingOutgoingAlternation) {
  // Every node of B* lies on exactly one necklace path from an incoming to
  // the next outgoing node: along H, consecutive same-necklace nodes follow
  // the rotation, and each necklace is entered as often as it is exited.
  const auto ctx = core::InstanceContext::make(3, 4);
  const WordSpace& ws = ctx->words();
  Rng rng(0x1e21);
  const auto faults = rng.sample_distinct(ws.size(), 3);
  const auto r = core::solve_ffc(*ctx, faults);
  std::map<Word, int> entries, exits;
  for (std::size_t i = 0; i < r.cycle.length(); ++i) {
    const Word u = r.cycle.nodes[i];
    const Word v = r.cycle.nodes[(i + 1) % r.cycle.length()];
    if (ws.min_rotation(u) == ws.min_rotation(v)) {
      EXPECT_EQ(v, ws.rotate_left(u, 1)) << "intra-necklace moves are rotations";
    } else {
      ++exits[ws.min_rotation(u)];
      ++entries[ws.min_rotation(v)];
    }
  }
  EXPECT_EQ(entries, exits);
  for (const auto& [rep, count] : entries) {
    EXPECT_GE(count, 1) << ws.to_string(rep);
  }
}

TEST(TreeCensus, TreeEdgesCountNecklacesMinusOne) {
  // T spans the necklaces of B*: |T| = #necklaces - 1; and the necklace
  // count of the fault-free graph matches the Chapter 4 formula.
  const auto ctx = core::InstanceContext::make(4, 4);
  const WordSpace& ws = ctx->words();
  const auto nofault = core::solve_ffc(*ctx, {});
  EXPECT_EQ(nofault.necklace_count, necklace::necklaces_total(4, 4));
  EXPECT_EQ(nofault.tree_edges.size(), nofault.necklace_count - 1);
  Rng rng(0x7ee);
  for (unsigned trial = 0; trial < 10; ++trial) {
    const auto faults = rng.sample_distinct(ws.size(), 1 + rng.below(5));
    const auto r = core::solve_ffc(*ctx, faults);
    EXPECT_EQ(r.tree_edges.size(), r.necklace_count - 1);
  }
}

TEST(Generators, FfcAndLfsrFamiliesAreBothDeBruijnSequences) {
  // Two completely independent Hamiltonian-cycle generators - the FFC
  // necklace stitch and the GF(q) maximal-cycle insertion - both produce
  // valid De Bruijn sequences for the same graphs.
  for (auto [d, n] : {std::pair<Digit, unsigned>{2, 6}, {3, 4}, {4, 3}, {5, 2}}) {
    const auto ctx = core::InstanceContext::make(d, n);
    const WordSpace& ws = ctx->words();
    EXPECT_TRUE(is_hamiltonian(ws, core::solve_ffc(*ctx, {}).cycle));
    const gf::Field field(d);
    const core::MaximalCycleFamily family(field, n);
    EXPECT_TRUE(is_hamiltonian(ws, family.hamiltonian_cycle_at(0, 1)));
  }
}

TEST(Generators, EulerLiftMatchesFfcLengths) {
  // Third generator: Euler circuits of B(d,n-1) lifted through the line
  // graph identity. All three agree on cycle length d^n.
  for (auto [d, n] : {std::pair<Digit, unsigned>{2, 5}, {3, 3}}) {
    const DeBruijnDigraph small(d, n - 1);
    const auto circuit = eulerian_circuit(small.materialize());
    EXPECT_EQ(circuit.size(), WordSpace(d, n).size());
    SymbolCycle seq;
    for (NodeId v : circuit) seq.symbols.push_back(small.words().head(v));
    EXPECT_TRUE(is_hamiltonian(WordSpace(d, n), seq));
  }
}

TEST(Distributed, RoundBudgetHoldsUnderFaults) {
  // Total rounds <= ecc(R) + 3n + 2 on random faulty networks, not just
  // fault-free ones.
  Rng rng(0xdf);
  for (auto [d, n] : {std::pair<Digit, unsigned>{2, 9}, {3, 5}, {4, 4}}) {
    const core::DistributedFfcSolver solver{DeBruijnDigraph(d, n)};
    for (unsigned trial = 0; trial < 8; ++trial) {
      const auto faults =
          rng.sample_distinct(solver.graph().num_nodes(), rng.below(6));
      Word root;
      try {
        root = solver.default_root(faults);
      } catch (const precondition_error&) {
        continue;
      }
      const auto r = solver.run(faults, root);
      EXPECT_LE(r.stats.total_rounds(),
                static_cast<std::uint64_t>(r.root_eccentricity) + 3 * n + 2);
    }
  }
}

TEST(CrossNetwork, GuaranteeComparisonAtMatchedSizes) {
  // The Chapter 2 comparison at another matched size: 256 nodes = B(4,4) vs
  // Q_8. Constructive check of both guarantees with two faults.
  const auto debruijn = core::InstanceContext::make(4, 4);
  Rng rng(0xc0);
  for (unsigned trial = 0; trial < 5; ++trial) {
    const auto dbf = rng.sample_distinct(256, 2);
    EXPECT_GE(core::solve_ffc(*debruijn, dbf).cycle.length(), 256u - 4 * 2);
    const auto qf = rng.sample_distinct(256, 2);
    EXPECT_GE(hypercube::fault_free_cycle(8, qf).size(), 256u - 2 * 2);
  }
}

TEST(NodePlusEdgeFaults, RingSurvivesMixedFailures) {
  // Composition scenario: first edge failures are survived by switching to
  // a disjoint ring (Chapter 3), then a node failure on that ring is
  // handled by re-embedding with the FFC (Chapter 2). The library supports
  // the full sequence.
  const unsigned n = 3;
  const auto ctx = core::InstanceContext::make(4, n);
  const WordSpace& ws = ctx->words();
  Rng rng(0xabc);
  // Two dead links.
  std::vector<Word> dead_links;
  while (dead_links.size() < 2) {
    const Word e = rng.below(ws.edge_word_count());
    const auto [u, v] = ws.edge_endpoints(e);
    if (u != v) dead_links.push_back(e);
  }
  const auto ring = core::solve_edge_auto(*ctx, dead_links);
  ASSERT_TRUE(ring.has_value());
  EXPECT_TRUE(avoids_edges(ws, *ring, dead_links));
  // Now a processor on that ring dies; fall back to the FFC ring.
  const Word dead_node = to_node_cycle(ws, *ring).nodes[7];
  const auto recovered = core::solve_ffc(*ctx, std::vector<Word>{dead_node});
  EXPECT_GE(recovered.cycle.length(), ws.size() - n);
  EXPECT_TRUE(is_cycle(ws, recovered.cycle));
}

}  // namespace
}  // namespace dbr
