#include "core/ffc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "debruijn/cycle.hpp"
#include "ffc_reference.hpp"
#include "graph/longest_cycle.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dbr::core {
namespace {

Word word_of(const WordSpace& ws, std::initializer_list<Digit> digits) {
  return ws.from_digits(std::vector<Digit>(digits));
}

// --------------------------------------------------------------------------
// Example 2.1: B(3,3) with faults {020, 112}.

class Example21 : public ::testing::Test {
 protected:
  Example21() : ctx_(InstanceContext::make(3, 3)) {
    const WordSpace& ws = ctx_->words();
    faults_ = {word_of(ws, {0, 2, 0}), word_of(ws, {1, 1, 2})};
    result_ = solve_ffc(*ctx_, faults_);
  }

  std::shared_ptr<const InstanceContext> ctx_;
  std::vector<Word> faults_;
  FfcResult result_;
};

TEST_F(Example21, BStarHas21Nodes) {
  EXPECT_EQ(result_.bstar_size, 21u);
  EXPECT_EQ(result_.cycle.length(), 21u);
  EXPECT_EQ(result_.faulty_node_count, 6u);
  EXPECT_EQ(result_.necklace_count, 9u);  // 11 necklaces in B(3,3) minus 2 faulty
}

TEST_F(Example21, RootIsAllZeros) {
  EXPECT_EQ(result_.root, 0u);
}

TEST_F(Example21, ReproducesThePaperCycleExactly) {
  // H = (000, 001, 011, 111, 110, 101, 012, 122, 222, 221, 212,
  //      120, 201, 010, 102, 022, 220, 202, 021, 210, 100).
  const WordSpace& ws = ctx_->words();
  const std::vector<std::vector<Digit>> expected{
      {0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {1, 1, 1}, {1, 1, 0}, {1, 0, 1},
      {0, 1, 2}, {1, 2, 2}, {2, 2, 2}, {2, 2, 1}, {2, 1, 2}, {1, 2, 0},
      {2, 0, 1}, {0, 1, 0}, {1, 0, 2}, {0, 2, 2}, {2, 2, 0}, {2, 0, 2},
      {0, 2, 1}, {2, 1, 0}, {1, 0, 0}};
  ASSERT_EQ(result_.cycle.length(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result_.cycle.nodes[i], ws.from_digits(expected[i]))
        << "position " << i << ": got " << ws.to_string(result_.cycle.nodes[i]);
  }
}

TEST_F(Example21, CycleIsValidAndAvoidsFaultyNecklaces) {
  const WordSpace& ws = ctx_->words();
  EXPECT_TRUE(is_cycle(ws, result_.cycle));
  const std::set<Word> cycle_nodes(result_.cycle.nodes.begin(),
                                   result_.cycle.nodes.end());
  for (Word f : faults_) {
    for (Word v : necklace_nodes(ws, f)) {
      EXPECT_FALSE(cycle_nodes.contains(v));
    }
  }
}

TEST_F(Example21, SpanningTreeMatchesFigure24a) {
  // Figure 2.4(a): [000]-00->[001]; [001]-01->{[011],[012]};
  // [011]-11->[111]; [012]-12->[122]; [122]-22->[222];
  // [001]-10->[021]; [021]-02->[022].
  const WordSpace& ws = ctx_->words();
  const WordSpace label_ws(3, 2);  // labels are 2-digit values
  auto T = [&](std::initializer_list<Digit> from, std::initializer_list<Digit> to,
               std::initializer_list<Digit> label) {
    return LabeledEdge{word_of(ws, from), word_of(ws, to),
                       label_ws.from_digits(std::vector<Digit>(label))};
  };
  std::vector<LabeledEdge> expected{
      T({0, 0, 0}, {0, 0, 1}, {0, 0}), T({0, 0, 1}, {0, 1, 1}, {0, 1}),
      T({0, 0, 1}, {0, 1, 2}, {0, 1}), T({0, 1, 1}, {1, 1, 1}, {1, 1}),
      T({0, 1, 2}, {1, 2, 2}, {1, 2}), T({1, 2, 2}, {2, 2, 2}, {2, 2}),
      T({0, 0, 1}, {0, 2, 1}, {1, 0}), T({0, 2, 1}, {0, 2, 2}, {0, 2})};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result_.tree_edges, expected);
}

TEST_F(Example21, ModifiedTreeIsEulerianUnderH) {
  // Lemma 2.2: the projection J of H onto D is an Eulerian circuit of D -
  // every D edge is used exactly once by the necklace-to-necklace moves.
  const WordSpace& ws = ctx_->words();
  std::multiset<std::pair<Word, Word>> used;
  const auto& nodes = result_.cycle.nodes;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Word u = nodes[i];
    const Word v = nodes[(i + 1) % nodes.size()];
    const Word ru = ws.min_rotation(u);
    const Word rv = ws.min_rotation(v);
    if (ru != rv) used.insert({ru, rv});
  }
  std::multiset<std::pair<Word, Word>> expected;
  for (const LabeledEdge& e : result_.modified_edges) {
    expected.insert({e.from, e.to});
  }
  EXPECT_EQ(used, expected);
}

TEST_F(Example21, NecklaceAdjacencyAntiparallel) {
  const auto active = ffc_reference::active_mask(*ctx_, faults_);
  const auto nstar = ffc_reference::necklace_adjacency(*ctx_, active);
  EXPECT_EQ(nstar.reps.size(), 9u);
  // Every w-edge has an antiparallel partner with the same label.
  const std::set<ffc_reference::NecklaceAdjacency::Edge> edges(nstar.edges.begin(),
                                                nstar.edges.end());
  for (const auto& e : edges) {
    EXPECT_TRUE(edges.contains({e.to, e.from, e.label}));
    EXPECT_NE(e.from, e.to);
  }
  // T and D edges are all supported by N*.
  std::set<std::tuple<Word, Word, Word>> support;
  for (const auto& e : nstar.edges) support.insert({e.from, e.to, e.label});
  for (const LabeledEdge& e : result_.tree_edges) {
    EXPECT_TRUE(support.contains({e.from, e.to, e.label}));
  }
  for (const LabeledEdge& e : result_.modified_edges) {
    EXPECT_TRUE(support.contains({e.from, e.to, e.label}));
  }
}

// --------------------------------------------------------------------------
// Zero faults: the FFC algorithm generates full De Bruijn sequences.

class NoFaults : public ::testing::TestWithParam<std::pair<Digit, unsigned>> {};

TEST_P(NoFaults, ProducesHamiltonianCycle) {
  const auto [d, n] = GetParam();
  const auto ctx = InstanceContext::make(d, n);
  const auto result = solve_ffc(*ctx, {});
  EXPECT_EQ(result.bstar_size, ctx->words().size());
  EXPECT_TRUE(is_hamiltonian(ctx->words(), result.cycle));
  EXPECT_TRUE(result.faulty_necklace_reps.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, NoFaults,
    ::testing::Values(std::pair<Digit, unsigned>{2, 1}, std::pair<Digit, unsigned>{2, 4},
                      std::pair<Digit, unsigned>{2, 8}, std::pair<Digit, unsigned>{3, 3},
                      std::pair<Digit, unsigned>{3, 5}, std::pair<Digit, unsigned>{4, 3},
                      std::pair<Digit, unsigned>{5, 3}, std::pair<Digit, unsigned>{6, 2},
                      std::pair<Digit, unsigned>{7, 2}, std::pair<Digit, unsigned>{4, 5}),
    [](const auto& pinfo) {
      return "B" + std::to_string(pinfo.param.first) + "_" +
             std::to_string(pinfo.param.second);
    });

// --------------------------------------------------------------------------
// Random fault sets: structural correctness of H in every case.

struct RandomCase {
  Digit d;
  unsigned n;
  unsigned max_faults;
};

class RandomFaults : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomFaults, CycleIsHamiltonianOnComponent) {
  const auto [d, n, max_faults] = GetParam();
  const auto ctx = InstanceContext::make(d, n);
  const WordSpace& ws = ctx->words();
  Rng rng(0x5eedULL + d * 100 + n);
  for (unsigned trial = 0; trial < 40; ++trial) {
    const unsigned f = 1 + static_cast<unsigned>(rng.below(max_faults));
    const auto faults = rng.sample_distinct(ws.size(), f);
    FfcResult result;
    try {
      result = solve_ffc(*ctx, faults);
    } catch (const precondition_error&) {
      // All nodes faulty (possible for tiny graphs with many faults).
      continue;
    }
    EXPECT_TRUE(is_cycle(ws, result.cycle));
    // H avoids every faulty necklace.
    const std::set<Word> bad(result.faulty_necklace_reps.begin(),
                             result.faulty_necklace_reps.end());
    for (Word v : result.cycle.nodes) {
      EXPECT_FALSE(bad.contains(ws.min_rotation(v)));
    }
    // H covers the whole component of the root.
    const auto active = ffc_reference::active_mask(*ctx, faults);
    const auto comp = ffc_reference::component_of(*ctx, active, result.root);
    std::uint64_t comp_size = 0;
    for (Word v = 0; v < ws.size(); ++v) comp_size += comp[v] ? 1 : 0;
    EXPECT_EQ(result.cycle.length(), comp_size);
    EXPECT_EQ(result.bstar_size, comp_size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomFaults,
    ::testing::Values(RandomCase{2, 6, 8}, RandomCase{2, 10, 30},
                      RandomCase{3, 4, 10}, RandomCase{4, 4, 12},
                      RandomCase{4, 5, 40}, RandomCase{5, 3, 8},
                      RandomCase{6, 3, 10}, RandomCase{7, 2, 6}),
    [](const auto& pinfo) {
      return "B" + std::to_string(pinfo.param.d) + "_" +
             std::to_string(pinfo.param.n) + "_f" +
             std::to_string(pinfo.param.max_faults);
    });

// --------------------------------------------------------------------------
// Proposition 2.2: with f <= d-2 faults, |H| >= d^n - nf, eccentricity <= 2n,
// and the faulty graph minus necklaces stays connected (B* is everything).

class Prop22 : public ::testing::TestWithParam<std::pair<Digit, unsigned>> {};

TEST_P(Prop22, BoundsHold) {
  const auto [d, n] = GetParam();
  const auto ctx = InstanceContext::make(d, n);
  const WordSpace& ws = ctx->words();
  Rng rng(0xfeedULL + d * 10 + n);
  for (unsigned trial = 0; trial < 60; ++trial) {
    const unsigned f = static_cast<unsigned>(rng.below(d - 1));  // f <= d-2
    const auto faults = rng.sample_distinct(ws.size(), f);
    const auto result = solve_ffc(*ctx, faults);
    EXPECT_GE(result.cycle.length(), ws.size() - n * f)
        << "d=" << unsigned(d) << " n=" << n << " f=" << f;
    EXPECT_LE(result.root_eccentricity, 2 * n);
    // B* holds every nonfaulty necklace: size == d^n - N_F.
    EXPECT_EQ(result.bstar_size, ws.size() - result.faulty_node_count);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Prop22,
    ::testing::Values(std::pair<Digit, unsigned>{3, 3}, std::pair<Digit, unsigned>{3, 5},
                      std::pair<Digit, unsigned>{4, 3}, std::pair<Digit, unsigned>{4, 5},
                      std::pair<Digit, unsigned>{5, 3}, std::pair<Digit, unsigned>{5, 4},
                      std::pair<Digit, unsigned>{6, 3}, std::pair<Digit, unsigned>{7, 3},
                      std::pair<Digit, unsigned>{8, 2}, std::pair<Digit, unsigned>{9, 2}),
    [](const auto& pinfo) {
      return "B" + std::to_string(pinfo.param.first) + "_" +
             std::to_string(pinfo.param.second);
    });

// --------------------------------------------------------------------------
// Proposition 2.3: a single fault in B(2,n) leaves a cycle of length at
// least 2^n - (n+1). Exhaustive over all single faults.

class Prop23 : public ::testing::TestWithParam<unsigned> {};

TEST_P(Prop23, SingleFaultBinaryBound) {
  const unsigned n = GetParam();
  const auto ctx = InstanceContext::make(2, n);
  const WordSpace& ws = ctx->words();
  for (Word fault = 0; fault < ws.size(); ++fault) {
    const std::vector<Word> faults{fault};
    const auto result = solve_ffc(*ctx, faults);
    EXPECT_GE(result.cycle.length(), ws.size() - (n + 1))
        << "fault " << ws.to_string(fault);
    EXPECT_TRUE(is_cycle(ws, result.cycle));
  }
}

INSTANTIATE_TEST_SUITE_P(AllN, Prop23, ::testing::Values(3u, 4u, 5u, 6u, 7u, 8u),
                         [](const auto& pinfo) {
                           return "n" + std::to_string(pinfo.param);
                         });

// --------------------------------------------------------------------------
// Worst-case optimality (Section 2.5): with the adversarial fault set
// F = {a^(n-1)(d-1) | 0 <= a <= f-1}, no fault-free cycle (necklace removal
// or not) exceeds d^n - nf; the FFC meets the bound exactly.

TEST(WorstCase, FfcMeetsBoundExactly) {
  for (Digit d : {3u, 4u, 5u}) {
    for (unsigned n : {2u, 3u}) {
      const auto ctx = InstanceContext::make(d, n);
      const WordSpace& ws = ctx->words();
      for (unsigned f = 1; f <= d - 2; ++f) {
        std::vector<Word> faults;
        for (Digit a = 0; a < f; ++a) {
          Word x = ws.repeated(a);
          x = ws.with_digit(x, n - 1, d - 1);  // a...a(d-1)
          faults.push_back(x);
        }
        const auto result = solve_ffc(*ctx, faults);
        EXPECT_EQ(result.cycle.length(), ws.size() - n * f)
            << "d=" << d << " n=" << n << " f=" << f;
      }
    }
  }
}

TEST(WorstCase, BruteForceConfirmsOptimality) {
  // Exhaustive longest-cycle search over the graph with only the faulty
  // *nodes* removed (not whole necklaces): the optimum equals d^n - nf.
  struct Case {
    Digit d;
    unsigned n;
    unsigned f;
  };
  // B(5,2) with f=1 also passes (optimum 23 = 25 - 2) but its exhaustive
  // search takes ~30s, so it is left to the prop_2_bounds bench.
  for (const auto& c : {Case{3, 2, 1}, Case{4, 2, 1}, Case{4, 2, 2},
                        Case{5, 2, 3}, Case{3, 3, 1}}) {
    const DeBruijnDigraph g(c.d, c.n);
    const WordSpace& ws = g.words();
    std::vector<bool> active(ws.size(), true);
    for (Digit a = 0; a < c.f; ++a) {
      Word x = ws.repeated(a);
      x = ws.with_digit(x, c.n - 1, c.d - 1);
      active[x] = false;
    }
    const auto best = longest_cycle_bruteforce(g.materialize(), active);
    EXPECT_EQ(best, ws.size() - c.n * c.f)
        << "d=" << unsigned(c.d) << " n=" << c.n << " f=" << c.f;
  }
}

// --------------------------------------------------------------------------
// Root selection and component semantics.

TEST(Roots, ExplicitRootIsHonored) {
  const auto ctx = InstanceContext::make(2, 5);
  const WordSpace& ws = ctx->words();
  // Fault of weight 1 disconnects 0^n from the rest (Proposition 2.3 proof).
  const Word w1 = word_of(ws, {0, 0, 0, 0, 1});
  FfcOptions opts;
  opts.root = word_of(ws, {0, 1, 1, 1, 1});
  const auto result = solve_ffc(*ctx, std::vector<Word>{w1}, opts);
  // Component excluding 0^n and the removed necklace: 32 - 5 - 1 = 26.
  EXPECT_EQ(result.cycle.length(), 26u);
  // 0^n alone forms the other component.
  const auto isolated = ffc_reference::component_of(
      *ctx, ffc_reference::active_mask(*ctx, std::vector<Word>{w1}), 0);
  std::uint64_t size = 0;
  for (Word v = 0; v < ws.size(); ++v) size += isolated[v] ? 1 : 0;
  EXPECT_EQ(size, 1u);
}

TEST(Roots, DefaultPicksLargestComponent) {
  const auto ctx = InstanceContext::make(2, 5);
  const WordSpace& ws = ctx->words();
  const Word w1 = word_of(ws, {0, 0, 0, 0, 1});
  const auto result = solve_ffc(*ctx, std::vector<Word>{w1});
  EXPECT_EQ(result.cycle.length(), 26u);
  EXPECT_NE(result.root, 0u);  // 0^n is isolated, not in the largest component
}

TEST(Roots, FaultyRootRejected) {
  const auto ctx = InstanceContext::make(3, 3);
  FfcOptions opts;
  opts.root = 0;
  EXPECT_THROW((void)solve_ffc(*ctx, std::vector<Word>{0}, opts), precondition_error);
}

TEST(Roots, AllNodesFaultyRejected) {
  const auto ctx = InstanceContext::make(2, 2);
  std::vector<Word> everything{0, 1, 2, 3};
  EXPECT_THROW((void)solve_ffc(*ctx, everything), precondition_error);
}

TEST(Roots, NonCanonicalRootIsCanonicalized) {
  const auto ctx = InstanceContext::make(3, 3);
  const WordSpace& ws = ctx->words();
  FfcOptions opts;
  opts.root = word_of(ws, {1, 0, 0});  // necklace rep is 001
  const auto result = solve_ffc(*ctx, {}, opts);
  EXPECT_EQ(result.root, word_of(ws, {0, 0, 1}));
}

// --------------------------------------------------------------------------
// Structural invariants of the intermediate objects over random instances.

TEST(TreeStructure, TreeSpansComponentNecklaces) {
  const auto ctx = InstanceContext::make(4, 4);
  const WordSpace& ws = ctx->words();
  Rng rng(77);
  for (unsigned trial = 0; trial < 20; ++trial) {
    const auto faults = rng.sample_distinct(ws.size(), 1 + rng.below(6));
    const auto result = solve_ffc(*ctx, faults);
    // Each non-root necklace appears exactly once as a tree child.
    std::map<Word, int> child_count;
    for (const auto& e : result.tree_edges) ++child_count[e.to];
    EXPECT_EQ(child_count.size() + 1, result.necklace_count);
    for (const auto& [rep, count] : child_count) {
      EXPECT_EQ(count, 1);
      EXPECT_NE(rep, result.root);
    }
    // D has exactly one outgoing and one incoming w-edge per (member, label).
    std::set<std::pair<Word, Word>> out_slots, in_slots;
    for (const auto& e : result.modified_edges) {
      EXPECT_TRUE(out_slots.insert({e.from, e.label}).second);
      EXPECT_TRUE(in_slots.insert({e.to, e.label}).second);
    }
    EXPECT_EQ(result.modified_edges.size(),
              result.tree_edges.size() + /* label classes */
                  [&] {
                    std::set<Word> labels;
                    for (const auto& e : result.tree_edges) labels.insert(e.label);
                    return labels.size();
                  }());
  }
}

}  // namespace
}  // namespace dbr::core
