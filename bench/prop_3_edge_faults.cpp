// Verifies Propositions 3.3 and 3.4 constructively: for every d in a sweep,
// random edge-fault sets of exactly the promised budget MAX{psi(d)-1,
// phi(d)} always leave a Hamiltonian cycle, and the bench records which of
// the two constructions (disjoint-family scan vs recursive phi) produced
// it. One fault past the d-1 in-edge cut shows the budget is sharp.

#include <iostream>

#include "bench_common.hpp"
#include "core/disjoint_hc.hpp"
#include "core/edge_fault.hpp"
#include "debruijn/cycle.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace dbr;
using namespace dbr::bench;

std::vector<Word> random_nonloop_edges(const WordSpace& ws, unsigned count, Rng& rng) {
  std::vector<Word> out;
  while (out.size() < count) {
    const Word e = rng.below(ws.edge_word_count());
    const auto [u, v] = ws.edge_endpoints(e);
    if (u == v) continue;
    if (std::find(out.begin(), out.end(), e) == out.end()) out.push_back(e);
  }
  return out;
}

void print_tables() {
  heading("Propositions 3.3/3.4 - random fault sets at the exact budget (n = 2)");
  {
    TextTable t({"d", "budget", "trials", "successes", "via family", "via phi"});
    Rng rng(seed());
    for (std::uint64_t d = 3; d <= 16; ++d) {
      const auto ctx = core::InstanceContext::make(static_cast<Digit>(d), 2);
      const WordSpace& ws = ctx->words();
      const unsigned budget = static_cast<unsigned>(core::max_tolerable_edge_faults(d));
      unsigned ok = 0, via_family = 0, via_phi = 0;
      const unsigned tries = 30;
      for (unsigned trial = 0; trial < tries; ++trial) {
        const auto faults = random_nonloop_edges(ws, budget, rng);
        const auto fam = core::solve_edge_scan(*ctx, faults);
        const auto phi = core::solve_edge_phi(*ctx, faults);
        if (fam.has_value()) ++via_family;
        if (phi.has_value()) ++via_phi;
        const auto any = fam.has_value() ? fam : phi;
        if (any.has_value() && is_hamiltonian(ws, *any) &&
            avoids_edges(ws, *any, faults)) {
          ++ok;
        }
      }
      t.new_row().add(d).add(budget).add(tries).add(ok).add(via_family).add(via_phi);
    }
    emit(t);
  }

  heading("Sharpness - the d-1 in-edge cut at 0^n defeats every Hamiltonian cycle");
  {
    TextTable t({"d", "budget d-2 ok", "d-1 cut infeasible"});
    for (std::uint64_t d : {3ull, 4ull, 5ull, 7ull, 8ull, 9ull}) {
      const auto ctx = core::InstanceContext::make(static_cast<Digit>(d), 2);
      std::vector<Word> cut;
      for (Digit a = 1; a < d; ++a) cut.push_back(static_cast<Word>(a) * ctx->words().size());
      const auto infeasible = core::solve_edge_auto(*ctx, cut);
      std::vector<Word> partial(cut.begin(), cut.end() - 1);  // d-2 of them
      const auto feasible = core::solve_edge_auto(*ctx, partial);
      t.new_row()
          .add(d)
          .add(std::string(feasible.has_value() ? "yes" : "NO"))
          .add(std::string(infeasible.has_value() ? "NO (found one?!)" : "yes"));
    }
    emit(t);
  }

  heading("Deeper graphs (n = 3, 4): budget-level random faults");
  {
    TextTable t({"d", "n", "budget", "trials", "successes"});
    Rng rng(seed() + 1);
    for (auto [d, n] : {std::pair<std::uint64_t, unsigned>{3, 4}, {4, 3}, {5, 3},
                        {6, 3}, {8, 3}, {9, 3}}) {
      const auto ctx = core::InstanceContext::make(static_cast<Digit>(d), n);
      const WordSpace& ws = ctx->words();
      const unsigned budget = static_cast<unsigned>(core::max_tolerable_edge_faults(d));
      unsigned ok = 0;
      const unsigned tries = 15;
      for (unsigned trial = 0; trial < tries; ++trial) {
        const auto faults = random_nonloop_edges(ws, budget, rng);
        const auto hc = core::solve_edge_auto(*ctx, faults);
        if (hc.has_value() && is_hamiltonian(ws, *hc) && avoids_edges(ws, *hc, faults)) {
          ++ok;
        }
      }
      t.new_row().add(d).add(n).add(budget).add(tries).add(ok);
    }
    emit(t);
  }
}

void BM_EdgeFaultRecovery(benchmark::State& state) {
  const std::uint64_t d = static_cast<std::uint64_t>(state.range(0));
  const unsigned n = static_cast<unsigned>(state.range(1));
  const auto ctx = core::InstanceContext::make(static_cast<Digit>(d), n);
  Rng rng(5);
  const auto faults = random_nonloop_edges(
      ctx->words(), static_cast<unsigned>(core::max_tolerable_edge_faults(d)), rng);
  for (auto _ : state) {
    auto hc = core::solve_edge_auto(*ctx, faults);
    benchmark::DoNotOptimize(hc.has_value());
  }
}
BENCHMARK(BM_EdgeFaultRecovery)->Args({5, 3})->Args({8, 3})->Args({9, 3});

}  // namespace

int main(int argc, char** argv) {
  return dbr::bench::run(argc, argv, &print_tables, "prop_3_edge_faults",
                         "Propositions 3.3/3.4: edge-fault budgets met constructively per d");
}
