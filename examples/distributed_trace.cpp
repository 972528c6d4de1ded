// Runs the distributed FFC protocol of Section 2.4 on the paper's Example
// 2.1 network (B(3,3) with processors 020 and 112 dead) and reports the
// per-phase communication rounds - the network-level view of the same
// computation the centralized solver performs.
//
//   $ ./distributed_trace

#include <iostream>

#include "core/distributed_ffc.hpp"
#include "core/ffc.hpp"
#include "debruijn/cycle.hpp"

int main() {
  using namespace dbr;
  const DeBruijnDigraph graph(3, 3);
  const WordSpace& ws = graph.words();
  const core::DistributedFfcSolver solver(graph);

  const std::vector<Word> faults{ws.from_digits(std::vector<Digit>{0, 2, 0}),
                                 ws.from_digits(std::vector<Digit>{1, 1, 2})};
  std::cout << "network: B(3,3), 27 processors; dead: 020, 112\n"
            << "(the protocol is not told which processors died)\n\n";

  const auto result = solver.run(faults, /*root=*/0);

  std::cout << "phase rounds:\n"
            << "  necklace probe : " << result.stats.probe_rounds << " (= n)\n"
            << "  broadcast      : " << result.stats.broadcast_rounds
            << " (= ecc(R) + 1 = " << result.root_eccentricity << " + 1)\n"
            << "  dossier gather : " << result.stats.dossier_rounds << " (< n)\n"
            << "  T_w announce   : " << result.stats.announce_rounds << "\n"
            << "  reroute        : " << result.stats.reroute_rounds << " (< n)\n"
            << "  total          : " << result.stats.total_rounds() << " = O(K + n)\n"
            << "  messages       : " << result.stats.messages << "\n\n";

  std::cout << "ring found by the network (" << result.cycle.length()
            << " processors):\n  " << to_string(ws, result.cycle) << "\n\n";

  // Cross-check against the centralized solver.
  const auto ctx = core::InstanceContext::make(3, 3);
  core::FfcOptions opts;
  opts.root = 0;
  const bool identical = core::solve_ffc(*ctx, faults, opts).cycle == result.cycle;
  std::cout << "matches the centralized FFC solver: " << (identical ? "YES" : "NO")
            << "\n";
  return identical ? 0 : 1;
}
