// Reproduces Table 3.2: MAX{psi(d)-1, phi(d)}, the number of edge faults
// B(d,n) provably survives with a Hamiltonian cycle (Proposition 3.4), for
// 2 <= d <= 35 - exact arithmetic that must match the published row - and
// demonstrates the tolerance constructively at the bound for several d.

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
  heading("Table 3.2 - MAX{psi(d)-1, phi(d)} tolerable edge faults, 2 <= d <= 35");
  {
    TextTable t({"d", "psi(d)-1", "phi(d)", "MAX"});
    for (std::uint64_t d = 2; d <= 35; ++d) {
      t.new_row()
          .add(d)
          .add(core::psi(d) - 1)
          .add(core::phi_edge_bound(d))
          .add(core::max_tolerable_edge_faults(d));
    }
    emit(t);
    std::cout << "Sole d where the disjoint family beats the phi construction: d = 28.\n";
  }

  heading("Constructive demonstration at the bound (n = 2, 20 random fault sets)");
  {
    TextTable t({"d", "budget f", "successes", "trials"});
    Rng rng(seed());
    for (std::uint64_t d : {3ull, 4ull, 5ull, 6ull, 8ull, 9ull, 12ull, 13ull, 15ull}) {
      const auto ctx = core::InstanceContext::make(static_cast<Digit>(d), 2);
      const WordSpace& ws = ctx->words();
      const unsigned budget = static_cast<unsigned>(core::max_tolerable_edge_faults(d));
      unsigned ok = 0;
      const unsigned tries = 20;
      for (unsigned trial = 0; trial < tries; ++trial) {
        const auto faults = random_nonloop_edges(ws, budget, rng);
        const auto hc = core::solve_edge_auto(*ctx, faults);
        if (hc.has_value() && is_hamiltonian(ws, *hc) && avoids_edges(ws, *hc, faults)) {
          ++ok;
        }
      }
      t.new_row().add(d).add(budget).add(ok).add(tries);
    }
    emit(t);
  }
}

void BM_FaultFreeHcAtBudget(benchmark::State& state) {
  const std::uint64_t d = static_cast<std::uint64_t>(state.range(0));
  const auto ctx = core::InstanceContext::make(static_cast<Digit>(d), 2);
  Rng rng(1);
  const auto faults = random_nonloop_edges(
      ctx->words(), static_cast<unsigned>(core::max_tolerable_edge_faults(d)), rng);
  for (auto _ : state) {
    auto hc = core::solve_edge_auto(*ctx, faults);
    benchmark::DoNotOptimize(hc.has_value());
  }
}
BENCHMARK(BM_FaultFreeHcAtBudget)->Arg(5)->Arg(8)->Arg(12);

}  // namespace

int main(int argc, char** argv) {
  return dbr::bench::run(argc, argv, &print_tables, "table_3_2",
                         "Table 3.2: MAX{psi(d)-1, phi(d)} edge-fault tolerance, 2 <= d <= 35");
}
