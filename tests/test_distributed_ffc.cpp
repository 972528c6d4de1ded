#include "core/distributed_ffc.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/ffc.hpp"
#include "debruijn/cycle.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dbr::core {
namespace {

// --------------------------------------------------------------------------
// Agreement with the centralized solver: identical H for identical root.

struct AgreeCase {
  Digit d;
  unsigned n;
  unsigned max_faults;
};

class AgreesWithCentralized : public ::testing::TestWithParam<AgreeCase> {};

TEST_P(AgreesWithCentralized, IdenticalCycles) {
  const auto [d, n, max_faults] = GetParam();
  const DeBruijnDigraph graph(d, n);
  const auto ctx = InstanceContext::make(d, n);
  const DistributedFfcSolver dist(graph);
  const WordSpace& ws = graph.words();
  Rng rng(0xd15cULL + d * 37 + n);
  for (unsigned trial = 0; trial < 25; ++trial) {
    const unsigned f = static_cast<unsigned>(rng.below(max_faults + 1));
    const auto faults = rng.sample_distinct(ws.size(), f);
    Word root;
    try {
      root = dist.default_root(faults);
    } catch (const precondition_error&) {
      continue;  // everything reachable from 0..01 is faulty
    }
    FfcOptions opts;
    opts.root = root;
    const auto want = solve_ffc(*ctx, faults, opts);
    const auto got = dist.run(faults, root);
    EXPECT_EQ(got.root, want.root);
    EXPECT_EQ(got.cycle, want.cycle) << "trial " << trial << " f=" << f;
    EXPECT_EQ(got.bstar_size, want.bstar_size);
    EXPECT_EQ(got.root_eccentricity, want.root_eccentricity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AgreesWithCentralized,
    ::testing::Values(AgreeCase{2, 5, 4}, AgreeCase{2, 8, 12}, AgreeCase{3, 3, 4},
                      AgreeCase{3, 4, 8}, AgreeCase{4, 3, 6}, AgreeCase{4, 4, 16},
                      AgreeCase{5, 3, 10}, AgreeCase{6, 2, 6}, AgreeCase{7, 2, 6},
                      AgreeCase{2, 10, 30}),
    [](const auto& pinfo) {
      return "B" + std::to_string(pinfo.param.d) + "_" + std::to_string(pinfo.param.n);
    });

// --------------------------------------------------------------------------
// Example 2.1 through the network protocol.

TEST(DistributedExample21, ReproducesPaperCycle) {
  const DeBruijnDigraph graph(3, 3);
  const DistributedFfcSolver solver(graph);
  const WordSpace& ws = graph.words();
  const std::vector<Word> faults{ws.from_digits(std::vector<Digit>{0, 2, 0}),
                                 ws.from_digits(std::vector<Digit>{1, 1, 2})};
  const auto result = solver.run(faults, 0);
  EXPECT_EQ(result.bstar_size, 21u);
  EXPECT_TRUE(is_cycle(ws, result.cycle));
  const auto ctx = InstanceContext::make(3, 3);
  FfcOptions opts;
  opts.root = 0;
  EXPECT_EQ(result.cycle, solve_ffc(*ctx, faults, opts).cycle);
}

// --------------------------------------------------------------------------
// Round complexity: O(K + n) communication steps (Section 2.4).

TEST(RoundComplexity, ProbeDossierRerouteAreThetaN) {
  for (unsigned n : {4u, 6u, 8u, 10u}) {
    const DistributedFfcSolver solver(DeBruijnDigraph(2, n));
    const auto result = solver.run({}, 1);
    EXPECT_EQ(result.stats.probe_rounds, n);
    EXPECT_LE(result.stats.dossier_rounds, n);
    EXPECT_LE(result.stats.reroute_rounds, n);
    EXPECT_EQ(result.stats.announce_rounds, 1u);
  }
}

TEST(RoundComplexity, BroadcastIsEccentricityPlusOne) {
  const DeBruijnDigraph graph(3, 4);
  const DistributedFfcSolver solver(graph);
  Rng rng(0xbeefULL);
  for (unsigned trial = 0; trial < 10; ++trial) {
    const auto faults = rng.sample_distinct(graph.num_nodes(), rng.below(4));
    Word root;
    try {
      root = solver.default_root(faults);
    } catch (const precondition_error&) {
      continue;
    }
    const auto result = solver.run(faults, root);
    EXPECT_EQ(result.stats.broadcast_rounds, result.root_eccentricity + 1);
  }
}

TEST(RoundComplexity, TotalWithinLinearBudget) {
  // Total rounds <= K + 3n + 2 by construction; check the end-to-end figure
  // against the paper's O(K + n) claim on a spread of sizes.
  for (auto [d, n] : {std::pair<Digit, unsigned>{2, 10}, {3, 5}, {4, 4}, {5, 3}}) {
    const DistributedFfcSolver solver(DeBruijnDigraph(d, n));
    const auto result = solver.run({}, 1);
    EXPECT_LE(result.stats.total_rounds(),
              static_cast<std::uint64_t>(result.root_eccentricity) + 3 * n + 2);
  }
}

// --------------------------------------------------------------------------
// The pure Section-2.4 cost model (predict_rebuild_rounds) against the
// measured protocol accounting: the fabric prices every shard-remap rebuild
// with this estimator, so it must dominate the measured run phase by phase
// and be exact where the phase count is deterministic.

TEST(RebuildEstimator, MatchesMeasuredRunOnSeededFaults) {
  Rng rng(0x5ec24ULL);
  for (auto [d, n] : {std::pair<Digit, unsigned>{2, 8}, {2, 10}, {3, 4},
                      {4, 3}, {5, 3}}) {
    const DeBruijnDigraph graph(d, n);
    const DistributedFfcSolver solver(graph);
    for (unsigned trial = 0; trial < 8; ++trial) {
      const auto faults = rng.sample_distinct(graph.num_nodes(), rng.below(4));
      Word root;
      try {
        root = solver.default_root(faults);
      } catch (const precondition_error&) {
        continue;
      }
      const auto result = solver.run(faults, root);
      // Diameter-default estimate (eccentricity unknown): probe and
      // announce are exact, dossier / reroute / messages are upper bounds.
      // Broadcast's n + 1 default is NOT a bound once necklaces are
      // withdrawn (B*'s eccentricity can exceed n), so it is only checked
      // with the measured eccentricity supplied, where it must be exact.
      const DistributedFfcStats bound = predict_rebuild_rounds(d, n);
      EXPECT_EQ(bound.probe_rounds, result.stats.probe_rounds);
      EXPECT_EQ(bound.announce_rounds, result.stats.announce_rounds);
      EXPECT_GE(bound.dossier_rounds, result.stats.dossier_rounds);
      EXPECT_GE(bound.reroute_rounds, result.stats.reroute_rounds);
      EXPECT_GE(bound.messages, result.stats.messages);
      const DistributedFfcStats exact =
          predict_rebuild_rounds(d, n, result.root_eccentricity);
      EXPECT_EQ(exact.broadcast_rounds, result.stats.broadcast_rounds);
      if (faults.empty()) {
        EXPECT_EQ(bound.broadcast_rounds, result.stats.broadcast_rounds);
      }
    }
  }
}

TEST(RebuildEstimator, PhaseShapeIsThetaN) {
  // The estimator inherits the paper's per-phase shape: probe/dossier/
  // reroute grow linearly in n, broadcast defaults to the diameter bound
  // n + 1, announce is one round.
  for (unsigned n : {4u, 8u, 12u}) {
    const DistributedFfcStats est = predict_rebuild_rounds(2, n);
    EXPECT_EQ(est.probe_rounds, n);
    EXPECT_EQ(est.dossier_rounds, n - 1);
    EXPECT_EQ(est.reroute_rounds, n);
    EXPECT_EQ(est.broadcast_rounds, n + 1);
    EXPECT_EQ(est.announce_rounds, 1u);
    EXPECT_EQ(est.total_rounds(), 4ull * n + 1);
  }
  EXPECT_THROW(predict_rebuild_rounds(1, 3), precondition_error);
}

// --------------------------------------------------------------------------
// Fault discovery: the protocol receives no fault locations, only dead nodes.

TEST(FaultDiscovery, WithdrawnNecklacesAreExcluded) {
  const DeBruijnDigraph graph(4, 3);
  const DistributedFfcSolver solver(graph);
  const WordSpace& ws = graph.words();
  const std::vector<Word> faults{ws.from_digits(std::vector<Digit>{1, 2, 3})};
  const auto result = solver.run(faults, solver.default_root(faults));
  const std::set<Word> cycle_nodes(result.cycle.nodes.begin(), result.cycle.nodes.end());
  // The whole necklace of 123 is out, including the two nonfaulty members.
  for (Word v : necklace_nodes(ws, faults[0])) {
    EXPECT_FALSE(cycle_nodes.contains(v));
  }
  EXPECT_EQ(result.bstar_size, graph.num_nodes() - 3);
}

TEST(FaultDiscovery, RootOnFaultyNecklaceRejected) {
  const DistributedFfcSolver solver(DeBruijnDigraph(3, 3));
  EXPECT_THROW((void)solver.run(std::vector<Word>{1}, 1), precondition_error);
}

TEST(DefaultRoot, PrefersCanonical001) {
  const DistributedFfcSolver solver(DeBruijnDigraph(2, 6));
  EXPECT_EQ(solver.default_root({}), 1u);  // 000001
}

TEST(DefaultRoot, FallsBackToNeighbor) {
  const DeBruijnDigraph graph(2, 6);
  const DistributedFfcSolver solver(graph);
  // Kill the necklace of 0...01.
  const std::vector<Word> faults{1};
  const Word root = solver.default_root(faults);
  EXPECT_NE(root, 1u);
  const WordSpace& ws = graph.words();
  EXPECT_NE(ws.min_rotation(root), ws.min_rotation(1));
  // And the protocol runs fine from there.
  const auto result = solver.run(faults, root);
  EXPECT_TRUE(is_cycle(ws, result.cycle));
}

// --------------------------------------------------------------------------
// Message accounting sanity: traffic stays polynomial (no broadcast storms).

TEST(Traffic, MessageCountIsModest) {
  const DeBruijnDigraph graph(2, 10);
  const DistributedFfcSolver solver(graph);
  const auto result = solver.run({}, 1);
  // Probe: ~n per node; flood: d per node; dossier: <= n per node;
  // announce/reroute: O(n) per necklace. Generous envelope: 4n*d^n.
  EXPECT_LE(result.stats.messages, 4ull * 10 * 1024 * 2);
  EXPECT_GT(result.stats.messages, graph.num_nodes());
}

}  // namespace
}  // namespace dbr::core
