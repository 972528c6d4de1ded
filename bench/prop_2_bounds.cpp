// Verifies Propositions 2.2 and 2.3 and the worst-case optimality argument
// of Section 2.5 across a parameter grid:
//  * f <= d-2 node faults leave a cycle >= d^n - nf with eccentricity <= 2n;
//  * a single fault in B(2,n) leaves >= 2^n - (n+1);
//  * the adversarial fault set {a^(n-1)(d-1)} pins the FFC exactly at
//    d^n - nf, and exhaustive search confirms no better cycle exists on the
//    small instances.

#include <iostream>

#include "bench_common.hpp"
#include "core/ffc.hpp"
#include "graph/longest_cycle.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace dbr;
using namespace dbr::bench;

void print_tables() {
  heading("Proposition 2.2 - cycle >= d^n - nf and ecc <= 2n for f <= d-2 (random faults)");
  {
    TextTable t({"d", "n", "f", "trials", "min |H|", "d^n - nf", "max ecc", "2n"});
    Rng rng(seed());
    for (auto [d, n] : {std::pair<Digit, unsigned>{3, 4}, {4, 4}, {5, 3}, {6, 3},
                        {7, 3}, {8, 2}, {9, 3}}) {
      const auto ctx = core::InstanceContext::make(d, n);
      const WordSpace& ws = ctx->words();
      for (unsigned f = 1; f <= d - 2; f += (d > 5 ? 2 : 1)) {
        std::uint64_t min_len = ws.size();
        std::uint32_t max_ecc = 0;
        const unsigned num_trials = 50;
        for (unsigned trial = 0; trial < num_trials; ++trial) {
          const auto faults = rng.sample_distinct(ws.size(), f);
          const auto r = core::solve_ffc(*ctx, faults);
          min_len = std::min<std::uint64_t>(min_len, r.cycle.length());
          max_ecc = std::max(max_ecc, r.root_eccentricity);
        }
        t.new_row()
            .add(static_cast<std::uint64_t>(d))
            .add(n)
            .add(f)
            .add(num_trials)
            .add(min_len)
            .add(static_cast<std::int64_t>(ws.size()) - static_cast<std::int64_t>(n) * f)
            .add(static_cast<std::uint64_t>(max_ecc))
            .add(2 * n);
      }
    }
    emit(t);
  }

  heading("Proposition 2.3 - single fault in B(2,n): |H| >= 2^n - (n+1), exhaustive");
  {
    TextTable t({"n", "faults tried", "min |H|", "2^n - (n+1)"});
    for (unsigned n : {4u, 6u, 8u, 10u}) {
      const auto ctx = core::InstanceContext::make(2, n);
      const WordSpace& ws = ctx->words();
      std::uint64_t min_len = ws.size();
      for (Word fault = 0; fault < ws.size(); ++fault) {
        const auto r = core::solve_ffc(*ctx, std::vector<Word>{fault});
        min_len = std::min<std::uint64_t>(min_len, r.cycle.length());
      }
      t.new_row().add(n).add(ws.size()).add(min_len).add(
          static_cast<std::int64_t>(ws.size()) - (n + 1));
    }
    emit(t);
  }

  heading("Worst-case fault placement {a^(n-1)(d-1)}: FFC == d^n - nf == optimum");
  {
    TextTable t({"d", "n", "f", "FFC length", "d^n - nf", "exhaustive optimum"});
    for (auto [d, n, f] : {std::tuple<Digit, unsigned, unsigned>{3, 2, 1},
                           {4, 2, 1}, {4, 2, 2}, {5, 2, 3}, {3, 3, 1}}) {
      const auto ctx = core::InstanceContext::make(d, n);
      const WordSpace& ws = ctx->words();
      std::vector<Word> faults;
      std::vector<bool> active(ws.size(), true);
      for (Digit a = 0; a < f; ++a) {
        Word x = ws.repeated(a);
        x = ws.with_digit(x, n - 1, d - 1);
        faults.push_back(x);
        active[x] = false;
      }
      const auto r = core::solve_ffc(*ctx, faults);
      const auto best = longest_cycle_bruteforce(DeBruijnDigraph(ws).materialize(), active);
      t.new_row()
          .add(static_cast<std::uint64_t>(d))
          .add(n)
          .add(f)
          .add(r.cycle.length())
          .add(static_cast<std::int64_t>(ws.size()) - static_cast<std::int64_t>(n) * f)
          .add(best);
    }
    emit(t);
  }
}

void BM_SolveWorstCase(benchmark::State& state) {
  const Digit d = static_cast<Digit>(state.range(0));
  const unsigned n = static_cast<unsigned>(state.range(1));
  const auto ctx = core::InstanceContext::make(d, n);
  const WordSpace& ws = ctx->words();
  std::vector<Word> faults;
  for (Digit a = 0; a + 2 < d; ++a) {
    faults.push_back(ws.with_digit(ws.repeated(a), n - 1, d - 1));
  }
  for (auto _ : state) {
    auto r = core::solve_ffc(*ctx, faults);
    benchmark::DoNotOptimize(r.cycle.length());
  }
}
BENCHMARK(BM_SolveWorstCase)->Args({5, 4})->Args({7, 3})->Args({4, 6});

}  // namespace

int main(int argc, char** argv) {
  return dbr::bench::run(argc, argv, &print_tables, "prop_2_bounds",
                         "Propositions 2.2/2.3: FFC length and eccentricity bounds across a grid");
}
