// Verifies the O(K + n) communication complexity of the distributed FFC
// protocol (Section 2.4): per-phase round counts across network sizes, the
// broadcast phase tracking eccentricity(R) + 1, and wall-clock scaling of
// the centralized solver.

#include <iostream>

#include "bench_common.hpp"
#include "core/distributed_ffc.hpp"
#include "core/ffc.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace dbr;
using namespace dbr::bench;

void print_tables() {
  heading("Distributed FFC round counts (fault-free networks)");
  {
    TextTable t({"graph", "nodes", "n", "ecc(R)", "probe", "broadcast", "dossier",
                 "announce", "reroute", "total", "K+3n+2"});
    for (auto [d, n] : {std::pair<Digit, unsigned>{2, 6}, {2, 8}, {2, 10}, {2, 12},
                        {3, 5}, {3, 7}, {4, 4}, {4, 5}, {5, 4}}) {
      const core::DistributedFfcSolver solver{DeBruijnDigraph(d, n)};
      const auto r = solver.run({}, 1);
      t.new_row()
          .add("B(" + std::to_string(d) + "," + std::to_string(n) + ")")
          .add(r.bstar_size)
          .add(n)
          .add(static_cast<std::uint64_t>(r.root_eccentricity))
          .add(r.stats.probe_rounds)
          .add(r.stats.broadcast_rounds)
          .add(r.stats.dossier_rounds)
          .add(r.stats.announce_rounds)
          .add(r.stats.reroute_rounds)
          .add(r.stats.total_rounds())
          .add(static_cast<std::uint64_t>(r.root_eccentricity) + 3 * n + 2);
    }
    emit(t);
  }

  heading("Round counts under faults (B(2,10), increasing f)");
  {
    TextTable t({"f", "|B*|", "ecc(R)", "total rounds", "messages"});
    const core::DistributedFfcSolver solver{DeBruijnDigraph(2, 10)};
    Rng rng(seed());
    for (unsigned f : {0u, 2u, 5u, 10u, 20u, 40u}) {
      const auto faults = rng.sample_distinct(1024, f);
      Word root;
      try {
        root = solver.default_root(faults);
      } catch (const precondition_error&) {
        continue;
      }
      const auto r = solver.run(faults, root);
      t.new_row()
          .add(f)
          .add(r.bstar_size)
          .add(static_cast<std::uint64_t>(r.root_eccentricity))
          .add(r.stats.total_rounds())
          .add(r.stats.messages);
    }
    emit(t);
  }
}

void BM_CentralizedSolve(benchmark::State& state) {
  const Digit d = static_cast<Digit>(state.range(0));
  const unsigned n = static_cast<unsigned>(state.range(1));
  const auto ctx = core::InstanceContext::make(d, n);
  Rng rng(1);
  const auto faults = rng.sample_distinct(ctx->words().size(), 3);
  for (auto _ : state) {
    auto r = core::solve_ffc(*ctx, faults);
    benchmark::DoNotOptimize(r.bstar_size);
  }
  state.SetComplexityN(static_cast<std::int64_t>(ctx->words().size()));
}
BENCHMARK(BM_CentralizedSolve)
    ->Args({2, 8})
    ->Args({2, 10})
    ->Args({2, 12})
    ->Args({2, 14})
    ->Args({4, 5})
    ->Args({4, 6})
    ->Args({4, 7})
    ->Complexity(benchmark::oN);

void BM_DistributedProtocol(benchmark::State& state) {
  const core::DistributedFfcSolver solver{
      DeBruijnDigraph(2, static_cast<unsigned>(state.range(0)))};
  for (auto _ : state) {
    auto r = solver.run({}, 1);
    benchmark::DoNotOptimize(r.stats.total_rounds());
  }
}
BENCHMARK(BM_DistributedProtocol)->Arg(8)->Arg(10)->Arg(12);

}  // namespace

int main(int argc, char** argv) {
  return dbr::bench::run(argc, argv, &print_tables, "ffc_scaling",
                         "Distributed FFC communication complexity O(K + n) (Section 2.4)");
}
