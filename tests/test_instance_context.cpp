// The lazily built sections of an InstanceContext must agree with their
// on-demand counterparts, and sections an instance does not support must
// fail fast.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/disjoint_hc.hpp"
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
