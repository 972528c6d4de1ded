// Edge failures: build the psi(d) edge-disjoint Hamiltonian rings of a
// De Bruijn network, kill links, and re-embed a full-length ring
// (Chapter 3 / Propositions 3.2-3.4).
//
//   $ ./edge_fault_rings [d n]      (defaults: d=4 n=3)

#include <cstdlib>
#include <iostream>

#include "core/disjoint_hc.hpp"
#include "core/edge_fault.hpp"
#include "debruijn/cycle.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace dbr;
  const std::uint64_t d = argc > 1 ? static_cast<std::uint64_t>(std::atoi(argv[1])) : 4;
  const unsigned n = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 3;
  const auto ctx = core::InstanceContext::make(static_cast<Digit>(d), n);
  const WordSpace& ws = ctx->words();

  std::cout << "B(" << d << "," << n << "): psi(" << d << ") = " << core::psi(d)
            << " edge-disjoint Hamiltonian rings guaranteed; tolerates "
            << core::max_tolerable_edge_faults(d) << " link failures\n\n";

  const auto family = core::disjoint_hamiltonian_cycles(d, n);
  std::cout << "disjoint ring family (" << family.size() << " rings):\n";
  for (std::size_t i = 0; i < family.size(); ++i) {
    std::cout << "  ring " << i << ": [";
    for (std::size_t j = 0; j < std::min<std::size_t>(12, family[i].length()); ++j) {
      std::cout << (j ? "," : "") << family[i].symbols[j];
    }
    std::cout << (family[i].length() > 12 ? ",...]" : "]") << " length "
              << family[i].length() << "\n";
  }

  // Kill max-budget random links and recover.
  Rng rng(7);
  std::vector<Word> faults;
  const unsigned budget = static_cast<unsigned>(core::max_tolerable_edge_faults(d));
  while (faults.size() < budget) {
    const Word e = rng.below(ws.edge_word_count());
    const auto [u, v] = ws.edge_endpoints(e);
    if (u != v) faults.push_back(e);
  }
  std::cout << "\nkilling " << faults.size() << " links:";
  for (Word e : faults) {
    const auto [u, v] = ws.edge_endpoints(e);
    std::cout << " " << ws.to_string(u) << "->" << ws.to_string(v);
  }
  std::cout << "\n";

  const auto ring = core::solve_edge_auto(*ctx, faults);
  if (!ring.has_value()) {
    std::cout << "no fault-free Hamiltonian ring found (beyond guarantee?)\n";
    return 1;
  }
  std::cout << "recovered a full " << ring->length() << "-node ring avoiding all "
            << faults.size() << " dead links: "
            << (is_hamiltonian(ws, *ring) && avoids_edges(ws, *ring, faults)
                    ? "verified"
                    : "verification FAILED")
            << "\n";
  return 0;
}
