// Reproduces Table 2.1: size of the component containing R = 0...01 and the
// eccentricity of R in B(2,10) with f randomly distributed faulty necklaces.
//
// The paper's columns are Monte-Carlo statistics (its trial count is not
// stated; default here is 1000, override with DBR_TRIALS). Shape criteria:
// avg size tracks d^n - nf for small f and pulls ahead of it as f grows
// (faulty necklaces overlap), min size stays close to d^n - nf, and the
// eccentricity creeps up from n = 10 by a handful of rounds.

#include <iostream>

#include "bench_common.hpp"
#include "core/ffc.hpp"
#include "fault_sweep.hpp"

namespace {

using namespace dbr;
using namespace dbr::bench;

void print_tables() {
  heading("Table 2.1 - B(2,10), component of R = 0000000001 under f faulty necklaces");
  std::cout << "trials per row: " << trials() << ", seed: " << seed() << "\n";
  emit(fault_sweep_table(2, 10, paper_fault_counts(), trials(), seed()));
  std::cout << "Paper reference (f=2): avg 1004.48, min 1003, ecc avg 10.76.\n";
}

void BM_ComponentAndEccentricity(benchmark::State& state) {
  const auto ctx = core::InstanceContext::make(2, 10);
  const unsigned f = static_cast<unsigned>(state.range(0));
  std::uint64_t s = 0;
  for (auto _ : state) {
    const auto row = fault_sweep_row(*ctx, f, 10, 7 + ++s);
    benchmark::DoNotOptimize(row.avg_size);
  }
}
BENCHMARK(BM_ComponentAndEccentricity)->Arg(1)->Arg(10)->Arg(50);

void BM_FullFfcSolve(benchmark::State& state) {
  const auto ctx = core::InstanceContext::make(2, 10);
  Rng rng(123);
  const auto faults = rng.sample_distinct(1024, static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    auto result = core::solve_ffc(*ctx, faults);
    benchmark::DoNotOptimize(result.bstar_size);
  }
}
BENCHMARK(BM_FullFfcSolve)->Arg(0)->Arg(5)->Arg(20);

}  // namespace

int main(int argc, char** argv) {
  return dbr::bench::run(argc, argv, &print_tables, "table_2_1",
                         "Table 2.1: component size and eccentricity in B(2,10) under faulty necklaces");
}
