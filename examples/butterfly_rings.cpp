// Fault-tolerant rings in a butterfly network via the De Bruijn lift of
// Section 3.4: build the disjoint Hamiltonian family of F(d,n), kill links,
// recover a full ring (needs gcd(d,n) = 1).
//
//   $ ./butterfly_rings [d n]      (defaults: d=3 n=4)

#include <cstdlib>
#include <iostream>
#include <set>

#include "butterfly/lift.hpp"
#include "core/butterfly_embedding.hpp"
#include "core/disjoint_hc.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace dbr;
  const Digit d = argc > 1 ? static_cast<Digit>(std::atoi(argv[1])) : 3;
  const unsigned n = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 4;
  const auto ctx = core::InstanceContext::make(d, n);
  const ButterflyDigraph& bf = ctx->butterfly();

  std::cout << "F(" << unsigned(d) << "," << n << "): " << bf.num_nodes()
            << " nodes (" << n << " levels x " << bf.columns().size()
            << " columns)\n";

  const auto family = core::butterfly_disjoint_hcs(bf);
  std::cout << "lifted " << family.size() << " edge-disjoint Hamiltonian rings "
            << "(psi(" << unsigned(d) << ") = " << core::psi(d) << ")\n";
  for (std::size_t i = 0; i < family.size(); ++i) {
    std::cout << "  ring " << i << ": " << family[i].size() << " nodes, starts (";
    std::cout << bf.level_of(family[i][0]) << ","
              << bf.columns().to_string(bf.column_of(family[i][0])) << ")\n";
  }

  // Kill budget-many random butterfly links; recover a full ring.
  const unsigned budget = static_cast<unsigned>(core::max_tolerable_edge_faults(d));
  Rng rng(11);
  const auto edges = bf.materialize().edge_list();
  std::vector<std::pair<NodeId, NodeId>> faults;
  std::vector<Word> pulled_back;  // the De Bruijn edges they lift from
  for (auto idx : rng.sample_distinct(edges.size(), budget)) {
    faults.push_back(edges[idx]);
    pulled_back.push_back(
        butterfly::pull_back_edge(bf, edges[idx].first, edges[idx].second));
  }
  std::cout << "\nkilling " << faults.size() << " butterfly links\n";
  const auto ring = core::solve_butterfly(*ctx, pulled_back);
  if (!ring.has_value()) {
    std::cout << "no fault-free ring found\n";
    return 1;
  }
  std::set<std::pair<NodeId, NodeId>> used;
  for (std::size_t i = 0; i < ring->size(); ++i) {
    used.insert({(*ring)[i], (*ring)[(i + 1) % ring->size()]});
  }
  bool avoided = true;
  for (const auto& e : faults) avoided = avoided && !used.contains(e);
  std::cout << "recovered ring: " << ring->size() << " nodes, valid = "
            << (butterfly::is_butterfly_cycle(bf, *ring) ? "yes" : "NO")
            << ", avoids all dead links = " << (avoided ? "yes" : "NO") << "\n";
  return 0;
}
