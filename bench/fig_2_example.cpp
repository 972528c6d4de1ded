// Reproduces Figures 2.1-2.4 and Example 2.1: the complete FFC walk-through
// on B(3,3) with faults {020, 112} - the necklace adjacency graph N*
// (Figure 2.3), the spanning tree T (Figure 2.4a), the modified tree D
// (Figure 2.4b) and the resulting 21-node fault-free cycle H, which must
// equal the cycle printed in the paper verbatim.

#include <iostream>

#include "bench_common.hpp"
#include "core/ffc.hpp"
#include "debruijn/cycle.hpp"
#include "ffc_reference.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace {

using namespace dbr;
using namespace dbr::bench;

void print_tables() {
  const auto ctx = core::InstanceContext::make(3, 3);
  const WordSpace& ws = ctx->words();
  const WordSpace label_ws(3, 2);
  const std::vector<Word> faults{
      ws.from_digits(std::vector<Digit>{0, 2, 0}),
      ws.from_digits(std::vector<Digit>{1, 1, 2})};

  heading("Example 2.1 - faults {020, 112} in B(3,3)");
  std::cout << "faulty necklaces: ";
  for (Word rep : necklace_reps_of(ws, faults)) {
    std::cout << "[" << ws.to_string(rep) << "] = {";
    bool first = true;
    for (Word v : necklace_nodes(ws, rep)) {
      std::cout << (first ? "" : ", ") << ws.to_string(v);
      first = false;
    }
    std::cout << "} ";
  }
  std::cout << "\n";

  heading("Figure 2.3 - necklace adjacency graph N* of B*");
  const auto active = ffc_reference::active_mask(*ctx, faults);
  const auto nstar = ffc_reference::necklace_adjacency(*ctx, active);
  std::cout << nstar.reps.size() << " necklaces, " << nstar.edges.size()
            << " labeled edges (antiparallel pairs)\n";
  for (const auto& e : nstar.edges) {
    if (e.from < e.to) {  // print each antiparallel pair once
      std::cout << "  [" << ws.to_string(e.from) << "] <-" << label_ws.to_string(e.label)
                << "-> [" << ws.to_string(e.to) << "]\n";
    }
  }

  const auto result = core::solve_ffc(*ctx, faults);

  heading("Figure 2.4(a) - spanning tree T of N* (rooted at [000])");
  for (const auto& e : result.tree_edges) {
    std::cout << "  [" << ws.to_string(e.from) << "] --" << label_ws.to_string(e.label)
              << "--> [" << ws.to_string(e.to) << "]\n";
  }

  heading("Figure 2.4(b) - modified tree D (label classes turned into cycles)");
  for (const auto& e : result.modified_edges) {
    std::cout << "  [" << ws.to_string(e.from) << "] --" << label_ws.to_string(e.label)
              << "--> [" << ws.to_string(e.to) << "]\n";
  }

  heading("The fault-free cycle H (21 nodes)");
  std::cout << to_string(ws, result.cycle) << "\n";

  const std::vector<std::vector<Digit>> paper{
      {0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {1, 1, 1}, {1, 1, 0}, {1, 0, 1},
      {0, 1, 2}, {1, 2, 2}, {2, 2, 2}, {2, 2, 1}, {2, 1, 2}, {1, 2, 0},
      {2, 0, 1}, {0, 1, 0}, {1, 0, 2}, {0, 2, 2}, {2, 2, 0}, {2, 0, 2},
      {0, 2, 1}, {2, 1, 0}, {1, 0, 0}};
  bool match = result.cycle.length() == paper.size();
  for (std::size_t i = 0; match && i < paper.size(); ++i) {
    match = result.cycle.nodes[i] == ws.from_digits(paper[i]);
  }
  std::cout << "matches the cycle printed in the paper: " << (match ? "YES" : "NO")
            << "\n";
  ensure(match, "Example 2.1 reproduction must be exact");
}

void BM_Example21Solve(benchmark::State& state) {
  const auto ctx = core::InstanceContext::make(3, 3);
  const WordSpace& ws = ctx->words();
  const std::vector<Word> faults{ws.from_digits(std::vector<Digit>{0, 2, 0}),
                                 ws.from_digits(std::vector<Digit>{1, 1, 2})};
  for (auto _ : state) {
    auto result = core::solve_ffc(*ctx, faults);
    benchmark::DoNotOptimize(result.cycle.length());
  }
}
BENCHMARK(BM_Example21Solve);

}  // namespace

int main(int argc, char** argv) {
  return dbr::bench::run(argc, argv, &print_tables, "fig_2_example",
                         "Figures 2.1-2.4 / Example 2.1: FFC walk-through on B(3,3)");
}
