// Reproduces the Chapter 2 introduction's comparison: with two faults in a
// 4096-node network, the hypercube Q_12 guarantees a fault-free cycle of
// length 4092 ([WC92, CL91a]) while the De Bruijn graph B(4,6) guarantees at
// least 4084 - using 33% fewer links (16,384 directed De Bruijn edges vs
// 24,576 hypercube links). Both sides are built constructively here.

#include <iostream>
#include <set>

#include "bench_common.hpp"
#include "core/ffc.hpp"
#include "hypercube/fault_free_cycle.hpp"
#include "hypercube/hypercube.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace dbr;
using namespace dbr::bench;

void print_tables() {
  heading("Chapter 2 comparison - 4096-node De Bruijn B(4,6) vs hypercube Q_12");
  const DeBruijnDigraph debruijn(4, 6);
  const hypercube::Hypercube cube(12);
  {
    TextTable t({"network", "nodes", "links", "degree", "guarantee (f=2)"});
    t.new_row()
        .add(std::string("B(4,6)"))
        .add(debruijn.num_nodes())
        .add(debruijn.num_edges())
        .add(std::string("d=4 in/out"))
        .add(std::string(">= 4084 (d^n - nf)"));
    t.new_row()
        .add(std::string("Q_12"))
        .add(cube.num_nodes())
        .add(cube.num_links())
        .add(std::string("12"))
        .add(std::string(">= 4092 (2^n - 2f)"));
    emit(t);
  }

  heading("Constructive check over random 2-fault sets (10 trials each)");
  {
    const auto ctx = core::InstanceContext::make(4, 6);
    Rng rng(seed());
    TextTable t({"trial", "B(4,6) cycle", ">= 4084", "Q_12 cycle", ">= 4092"});
    for (unsigned trial = 0; trial < 10; ++trial) {
      const auto db_faults = rng.sample_distinct(debruijn.num_nodes(), 2);
      const auto db = core::solve_ffc(*ctx, db_faults);
      const auto hc_faults = rng.sample_distinct(cube.num_nodes(), 2);
      const auto hc = hypercube::fault_free_cycle(12, hc_faults);
      t.new_row()
          .add(trial)
          .add(db.cycle.length())
          .add(std::string(db.cycle.length() >= 4084 ? "yes" : "NO"))
          .add(hc.size())
          .add(std::string(hc.size() >= 4092 ? "yes" : "NO"));
    }
    emit(t);
  }

  heading("Guarantee per fault budget (worst-case bounds)");
  {
    TextTable t({"f", "B(4,6): d^n - nf", "Q_12: 2^n - 2f", "B tolerates?", "Q tolerates?"});
    for (unsigned f = 0; f <= 10; ++f) {
      t.new_row()
          .add(f)
          .add(static_cast<std::int64_t>(4096 - 6 * f))
          .add(static_cast<std::int64_t>(4096 - 2 * f))
          .add(std::string(f <= 2 ? "guaranteed" : "heuristic"))   // f <= d-2
          .add(std::string(f <= 10 ? "guaranteed" : "heuristic")); // f <= n-2
    }
    emit(t);
    std::cout << "The De Bruijn guarantee window (f <= d-2 = 2) is narrower, but at\n"
                 "equal fault count its network needs 2/3 of the links and constant\n"
                 "degree 4 instead of log N = 12.\n";
  }
}

void BM_DeBruijnSide(benchmark::State& state) {
  const auto ctx = core::InstanceContext::make(4, 6);
  Rng rng(3);
  const auto faults = rng.sample_distinct(4096, 2);
  for (auto _ : state) {
    auto r = core::solve_ffc(*ctx, faults);
    benchmark::DoNotOptimize(r.cycle.length());
  }
}
BENCHMARK(BM_DeBruijnSide);

void BM_HypercubeSide(benchmark::State& state) {
  Rng rng(3);
  const auto faults = rng.sample_distinct(4096, 2);
  for (auto _ : state) {
    auto c = hypercube::fault_free_cycle(12, faults);
    benchmark::DoNotOptimize(c.size());
  }
}
BENCHMARK(BM_HypercubeSide);

}  // namespace

int main(int argc, char** argv) {
  return dbr::bench::run(argc, argv, &print_tables, "compare_hypercube",
                         "Fault-free cycle guarantee: hypercube Q_12 vs De Bruijn B(4,6) (Chapter 2 intro)");
}
