// Reproduces Table 2.2: size of the component containing R = 00001 and the
// eccentricity of R in B(4,5) with f randomly distributed faulty necklaces.
//
// Shape criteria: B(4,5) fragments far less than B(2,10) (d = 4 gives three
// necklace-disjoint escape routes, Proposition 2.2): min size equals the
// d^n - nf line almost everywhere, and the eccentricity stays within a
// round or two of n + 1 = 6 even at f = 50.

#include <iostream>

#include "bench_common.hpp"
#include "core/instance_context.hpp"
#include "fault_sweep.hpp"

namespace {

using namespace dbr;
using namespace dbr::bench;

void print_tables() {
  heading("Table 2.2 - B(4,5), component of R = 00001 under f faulty necklaces");
  std::cout << "trials per row: " << trials() << ", seed: " << seed() << "\n";
  emit(fault_sweep_table(4, 5, paper_fault_counts(), trials(), seed()));
  std::cout << "Paper reference (f=10): avg 975.07, min 974, ecc avg 6.08.\n";
}

void BM_ComponentAndEccentricityB45(benchmark::State& state) {
  const auto ctx = core::InstanceContext::make(4, 5);
  const unsigned f = static_cast<unsigned>(state.range(0));
  std::uint64_t s = 0;
  for (auto _ : state) {
    const auto row = fault_sweep_row(*ctx, f, 10, 11 + ++s);
    benchmark::DoNotOptimize(row.avg_size);
  }
}
BENCHMARK(BM_ComponentAndEccentricityB45)->Arg(1)->Arg(10)->Arg(50);

}  // namespace

int main(int argc, char** argv) {
  return dbr::bench::run(argc, argv, &print_tables, "table_2_2",
                         "Table 2.2: component size and eccentricity in B(4,5) under faulty necklaces");
}
