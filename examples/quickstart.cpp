// Quickstart: embed a fault-free ring in a 1024-processor De Bruijn network
// with three dead processors.
//
//   $ ./quickstart [d n f]        (defaults: d=2 n=10 f=3)

#include <cstdlib>
#include <iostream>

#include "core/ffc.hpp"
#include "debruijn/cycle.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace dbr;
  const Digit d = argc > 1 ? static_cast<Digit>(std::atoi(argv[1])) : 2;
  const unsigned n = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 10;
  const unsigned f = argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 3;

  const auto ctx = core::InstanceContext::make(d, n);
  const WordSpace& ws = ctx->words();
  std::cout << "B(" << unsigned(d) << "," << n << "): " << ws.size()
            << " processors, " << DeBruijnDigraph(ws).num_edges() << " links\n";

  // Fail f random processors (the algorithm is not told which ones - it
  // removes their whole necklaces, per the Chapter 2 fault model).
  Rng rng(2024);
  const auto faults = rng.sample_distinct(ws.size(), f);
  std::cout << "faulty processors:";
  for (Word v : faults) std::cout << " " << ws.to_string(v);
  std::cout << "\n";

  const core::FfcResult result = core::solve_ffc(*ctx, faults);
  std::cout << "fault-free ring length: " << result.cycle.length() << " (>= "
            << ws.size() - n * f << " guaranteed when f <= d-2)\n"
            << "nodes lost to faulty necklaces: " << result.faulty_node_count << "\n"
            << "root R = " << ws.to_string(result.root)
            << ", eccentricity (broadcast rounds): " << result.root_eccentricity
            << "\n";

  // The ring is a subgraph of the surviving network: unit dilation and
  // congestion. Print the first few hops.
  std::cout << "ring prefix: ";
  for (std::size_t i = 0; i < std::min<std::size_t>(8, result.cycle.length()); ++i) {
    std::cout << ws.to_string(result.cycle.nodes[i]) << " -> ";
  }
  std::cout << "...\n";
  return 0;
}
