// The context/solve split must be invisible in the answers: every
// context-backed solve returns exactly what the from-scratch construction
// returns, and the lazily built sections agree with their on-demand
// counterparts.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "butterfly/lift.hpp"
#include "core/butterfly_embedding.hpp"
#include "core/disjoint_hc.hpp"
#include "core/edge_fault.hpp"
#include "core/ffc.hpp"
#include "core/instance_context.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dbr::core {
namespace {

struct Shape {
  Digit d;
  unsigned n;
};

constexpr Shape kShapes[] = {{2, 6}, {2, 8}, {3, 4}, {4, 4}, {5, 3}, {6, 3}};

std::vector<Word> random_edge_faults(Rng& rng, const WordSpace& ws,
                                     std::uint64_t count) {
  std::vector<Word> out;
  for (std::uint64_t v : rng.sample_distinct(ws.edge_word_count(), count)) {
    out.push_back(v);
  }
  return out;
}

TEST(InstanceContextTest, NecklaceTableMatchesWordSpace) {
  for (const Shape s : kShapes) {
    const InstanceContext ctx(s.d, s.n);
    const WordSpace& ws = ctx.words();
    const NecklaceTable& table = ctx.necklaces();
    ASSERT_EQ(table.min_rot.size(), ws.size());
    std::vector<Word> expected_reps;
    for (Word x = 0; x < ws.size(); ++x) {
      EXPECT_EQ(table.min_rot[x], ws.min_rotation(x));
      if (ws.min_rotation(x) == x) expected_reps.push_back(x);
    }
    EXPECT_EQ(table.reps, expected_reps);
    EXPECT_TRUE(std::is_sorted(table.reps.begin(), table.reps.end()));
  }
}

TEST(InstanceContextTest, PsiFamilyIndexMatchesTheSequentialScan) {
  Rng rng(2026);
  for (const Shape s : kShapes) {
    const InstanceContext ctx(s.d, s.n);
    const WordSpace& ws = ctx.words();
    const PsiFamilyIndex& family = ctx.psi_family();
    const std::vector<SymbolCycle> rebuilt =
        disjoint_hamiltonian_cycles(s.d, s.n);
    ASSERT_EQ(family.cycles.size(), rebuilt.size());
    for (std::size_t i = 0; i < rebuilt.size(); ++i) {
      EXPECT_EQ(family.cycles[i], rebuilt[i]);
    }
    // first_avoiding == index of the first cycle passing avoids_edges, for
    // fault sets of every size including beyond-guarantee ones.
    for (std::uint64_t f = 0; f <= family.cycles.size() + 2; ++f) {
      const std::vector<Word> faults = random_edge_faults(rng, ws, f);
      std::optional<std::size_t> slow;
      for (std::size_t i = 0; i < rebuilt.size(); ++i) {
        if (avoids_edges(ws, rebuilt[i], faults)) {
          slow = i;
          break;
        }
      }
      EXPECT_EQ(family.first_avoiding(faults), slow)
          << "d=" << s.d << " n=" << s.n << " f=" << f;
    }
  }
}

TEST(InstanceContextTest, SolveFfcMatchesTheStandaloneSolver) {
  Rng rng(7);
  for (const Shape s : kShapes) {
    const InstanceContext ctx(s.d, s.n);
    const FfcSolver standalone{DeBruijnDigraph(ctx.words())};
    for (std::uint64_t f = 0; f <= 3; ++f) {
      std::vector<Word> faults;
      for (std::uint64_t v : rng.sample_distinct(ctx.words().size(), f)) {
        faults.push_back(v);
      }
      const FfcResult via_ctx = solve_ffc(ctx, faults);
      const FfcResult direct = standalone.solve(faults);
      EXPECT_EQ(via_ctx.cycle, direct.cycle);
      EXPECT_EQ(via_ctx.root, direct.root);
      EXPECT_EQ(via_ctx.bstar_size, direct.bstar_size);
      EXPECT_EQ(via_ctx.tree_edges, direct.tree_edges);
      EXPECT_EQ(via_ctx.modified_edges, direct.modified_edges);
    }
  }
}

TEST(InstanceContextTest, EdgeSolvesMatchTheFromScratchConstructions) {
  Rng rng(99);
  for (const Shape s : kShapes) {
    const InstanceContext ctx(s.d, s.n);
    const WordSpace& ws = ctx.words();
    for (std::uint64_t f = 0; f <= max_tolerable_edge_faults(s.d) + 2; ++f) {
      const std::vector<Word> faults = random_edge_faults(rng, ws, f);
      EXPECT_EQ(solve_edge_scan(ctx, faults),
                fault_free_hc_family_scan(s.d, s.n, faults));
      EXPECT_EQ(solve_edge_phi(ctx, faults),
                fault_free_hc_phi_construction(s.d, s.n, faults));
      EXPECT_EQ(solve_edge_auto(ctx, faults),
                fault_free_hamiltonian_cycle(s.d, s.n, faults));
    }
  }
}

TEST(InstanceContextTest, SolveButterflyMatchesTheStandaloneConstruction) {
  for (const Shape s : {Shape{2, 5}, Shape{3, 4}, Shape{5, 4}}) {
    const InstanceContext ctx(s.d, s.n);
    ASSERT_TRUE(ctx.supports_butterfly());
    const ButterflyDigraph& bf = ctx.butterfly();
    // A couple of genuine butterfly edges as faults.
    std::vector<std::pair<NodeId, NodeId>> faults;
    bf.for_each_successor(0, [&](NodeId v) {
      if (faults.empty()) faults.emplace_back(0, v);
    });
    std::vector<Word> pulled_back;
    for (const auto& [u, v] : faults) {
      pulled_back.push_back(butterfly::pull_back_edge(bf, u, v));
    }
    const auto via_ctx = solve_butterfly(ctx, pulled_back);
    const auto direct = butterfly_fault_free_hc(bf, faults);
    ASSERT_EQ(via_ctx.has_value(), direct.has_value());
    if (via_ctx.has_value()) {
      EXPECT_EQ(*via_ctx, *direct);
    }
  }
}

TEST(InstanceContextTest, MaximalFamilyCoversExactlyThePrimePowerFactors) {
  const InstanceContext ctx(6, 3);  // 6 = 2 * 3
  EXPECT_NO_THROW(ctx.maximal_family(2));
  EXPECT_NO_THROW(ctx.maximal_family(3));
  EXPECT_THROW(ctx.maximal_family(6), precondition_error);
  EXPECT_THROW(ctx.maximal_family(5), precondition_error);
}

TEST(InstanceContextTest, UnsupportedSectionsFailFast) {
  const InstanceContext no_edges(3, 1);  // n < 2: no edge-fault machinery
  EXPECT_FALSE(no_edges.supports_edge_faults());
  EXPECT_THROW(no_edges.psi_family(), precondition_error);
  const InstanceContext no_lift(2, 6);  // gcd(2, 6) != 1
  EXPECT_FALSE(no_lift.supports_butterfly());
  EXPECT_THROW(no_lift.butterfly(), precondition_error);
}

}  // namespace
}  // namespace dbr::core
