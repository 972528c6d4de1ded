#include "core/edge_fault.hpp"

#include <gtest/gtest.h>

#include "core/disjoint_hc.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dbr::core {
namespace {

// Random distinct non-loop edge words of B(d,n).
std::vector<Word> random_edge_faults(const WordSpace& ws, unsigned count, Rng& rng) {
  std::vector<Word> out;
  while (out.size() < count) {
    const Word e = rng.below(ws.edge_word_count());
    const auto [u, v] = ws.edge_endpoints(e);
    if (u == v) continue;  // skip loops: no HC uses them anyway
    if (std::find(out.begin(), out.end(), e) == out.end()) out.push_back(e);
  }
  return out;
}

struct Case {
  std::uint64_t d;
  unsigned n;
};

class EdgeFaultSweep : public ::testing::TestWithParam<Case> {};

TEST_P(EdgeFaultSweep, ToleratesMaxFaultsRandomly) {
  const auto [d, n] = GetParam();
  const auto ctx = InstanceContext::make(static_cast<Digit>(d), n);
  const WordSpace& ws = ctx->words();
  const unsigned budget = static_cast<unsigned>(max_tolerable_edge_faults(d));
  Rng rng(0xedfeULL + d * 31 + n);
  for (unsigned trial = 0; trial < 25; ++trial) {
    const unsigned f = static_cast<unsigned>(rng.below(budget + 1));
    const auto faults = random_edge_faults(ws, f, rng);
    const auto hc = solve_edge_auto(*ctx, faults);
    ASSERT_TRUE(hc.has_value()) << "d=" << d << " n=" << n << " f=" << f;
    EXPECT_TRUE(is_hamiltonian(ws, *hc));
    EXPECT_TRUE(avoids_edges(ws, *hc, faults));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EdgeFaultSweep,
    ::testing::Values(Case{3, 2}, Case{3, 4}, Case{4, 2}, Case{4, 3}, Case{5, 2},
                      Case{5, 3}, Case{7, 2}, Case{8, 2}, Case{9, 2}, Case{6, 2},
                      Case{6, 3}, Case{10, 2}, Case{12, 2}, Case{15, 2}, Case{13, 2}),
    [](const auto& pinfo) {
      std::string name = "B";
      name += std::to_string(pinfo.param.d);
      name += '_';
      name += std::to_string(pinfo.param.n);
      return name;
    });

TEST(EdgeFault, AdversarialFaultsOnOneShiftedCycle) {
  // Put all faults on edges of a single s + C (the adversary kills one
  // shifted cycle as thoroughly as the budget allows); the construction
  // must pick another shift.
  const auto ctx = InstanceContext::make(7, 3);
  const WordSpace& ws = ctx->words();
  const MaximalCycleFamily& family = ctx->maximal_family(7);
  const auto target_edges = edge_words(ws, family.shifted_cycle(2));
  const std::vector<Word> faults(target_edges.begin(), target_edges.begin() + 5);
  const auto hc = solve_edge_auto(*ctx, faults);
  ASSERT_TRUE(hc.has_value());
  EXPECT_TRUE(is_hamiltonian(ws, *hc));
  EXPECT_TRUE(avoids_edges(ws, *hc, faults));
}

TEST(EdgeFault, AdversarialFaultsAtOneNode) {
  // Section 3.3: removing the d-1 non-loop edges into 0...0 makes B(d,n)
  // non-Hamiltonian, hence the budget d-2 for prime powers. Check that at
  // exactly d-2 in-edges killed we still succeed (the surviving in-edge
  // carries the cycle), for prime-power d.
  for (std::uint64_t d : {3ull, 5ull, 7ull, 9ull}) {
    const auto ctx = InstanceContext::make(static_cast<Digit>(d), 2);
    const WordSpace& ws = ctx->words();
    std::vector<Word> faults;
    // in-edges of 0^n: a 0^(n-1) -> 0^n, edge word a 0^n; skip the loop (a=0).
    for (Digit a = 1; a + 1 < d; ++a) {
      faults.push_back(static_cast<Word>(a) * ws.size());  // (n+1)-word a 0^n
    }
    const auto hc = solve_edge_auto(*ctx, faults);
    ASSERT_TRUE(hc.has_value()) << d;
    EXPECT_TRUE(is_hamiltonian(ws, *hc));
    EXPECT_TRUE(avoids_edges(ws, *hc, faults));
  }
}

TEST(EdgeFault, AllInEdgesKilledIsInfeasible) {
  // With all d-1 non-loop in-edges of 0^n faulty no Hamiltonian cycle
  // exists; both constructions must give up rather than cheat.
  const auto ctx = InstanceContext::make(4, 2);
  std::vector<Word> faults;
  for (Digit a = 1; a < 4; ++a) {
    faults.push_back(static_cast<Word>(a) * ctx->words().size() + 0);  // a00 edge word
  }
  const auto hc = solve_edge_auto(*ctx, faults);
  EXPECT_FALSE(hc.has_value());
}

TEST(EdgeFault, LoopFaultsAreFree) {
  // Loop edges never appear in Hamiltonian cycles; a pile of faulty loops
  // on top of the regular budget must not hurt.
  const auto ctx = InstanceContext::make(5, 3);
  const WordSpace& ws = ctx->words();
  Rng rng(99);
  std::vector<Word> faults = random_edge_faults(ws, 3, rng);  // phi(5) = 3
  for (Digit a = 0; a < 5; ++a) {
    const Word loop_node = ws.repeated(a);
    faults.push_back(ws.edge_word(loop_node, a));
  }
  const auto hc = solve_edge_auto(*ctx, faults);
  ASSERT_TRUE(hc.has_value());
  EXPECT_TRUE(is_hamiltonian(ws, *hc));
  EXPECT_TRUE(avoids_edges(ws, *hc, faults));
}

TEST(EdgeFault, PhiConstructionAloneMeetsItsBound) {
  for (const Case c : {Case{4, 2}, Case{5, 2}, Case{6, 2}, Case{9, 2}, Case{12, 2}}) {
    const auto ctx = InstanceContext::make(static_cast<Digit>(c.d), c.n);
    const WordSpace& ws = ctx->words();
    Rng rng(0x11ULL * c.d + c.n);
    const unsigned budget = static_cast<unsigned>(phi_edge_bound(c.d));
    for (unsigned trial = 0; trial < 15; ++trial) {
      const auto faults =
          random_edge_faults(ws, static_cast<unsigned>(rng.below(budget + 1)), rng);
      const auto hc = solve_edge_phi(*ctx, faults);
      ASSERT_TRUE(hc.has_value()) << "d=" << c.d;
      EXPECT_TRUE(is_hamiltonian(ws, *hc));
      EXPECT_TRUE(avoids_edges(ws, *hc, faults));
    }
  }
}

TEST(EdgeFault, FamilyScanAloneMeetsItsBound) {
  for (const Case c : {Case{4, 2}, Case{8, 2}, Case{13, 2}, Case{16, 2}}) {
    const auto ctx = InstanceContext::make(static_cast<Digit>(c.d), c.n);
    const WordSpace& ws = ctx->words();
    Rng rng(0x22ULL * c.d + c.n);
    const unsigned budget = static_cast<unsigned>(psi(c.d) - 1);
    for (unsigned trial = 0; trial < 10; ++trial) {
      const auto faults =
          random_edge_faults(ws, static_cast<unsigned>(rng.below(budget + 1)), rng);
      const auto hc = solve_edge_scan(*ctx, faults);
      ASSERT_TRUE(hc.has_value()) << "d=" << c.d;
      EXPECT_TRUE(is_hamiltonian(ws, *hc));
      EXPECT_TRUE(avoids_edges(ws, *hc, faults));
    }
  }
}

TEST(EdgeFault, D28PsiBeatsPhi) {
  // The Table 3.2 exception: at d = 28 the disjoint family tolerates 8
  // faults while the phi construction only promises 7.
  EXPECT_EQ(psi(28) - 1, 8u);
  EXPECT_EQ(phi_edge_bound(28), 7u);
  EXPECT_EQ(max_tolerable_edge_faults(28), 8u);
}

TEST(EdgeFault, Preconditions) {
  // d = 1: no instance to solve on.
  EXPECT_THROW((void)InstanceContext::make(1, 2), precondition_error);
  // n = 1: the instance exists, but no edge-fault construction applies.
  const auto line = InstanceContext::make(4, 1);
  EXPECT_THROW((void)solve_edge_auto(*line, {}), precondition_error);
  EXPECT_THROW((void)solve_edge_scan(*line, {}), precondition_error);
  EXPECT_THROW((void)solve_edge_phi(*line, {}), precondition_error);
  // An edge word past d^(n+1).
  const auto ctx = InstanceContext::make(2, 3);
  const std::vector<Word> bogus{1ull << 60};
  EXPECT_THROW((void)solve_edge_auto(*ctx, bogus), precondition_error);
  EXPECT_THROW((void)solve_edge_scan(*ctx, bogus), precondition_error);
  EXPECT_THROW((void)solve_edge_phi(*ctx, bogus), precondition_error);
}

}  // namespace
}  // namespace dbr::core
