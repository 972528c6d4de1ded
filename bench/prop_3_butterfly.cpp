// Verifies Propositions 3.5 and 3.6: for gcd(d,n) = 1 the butterfly F(d,n)
// inherits psi(d) disjoint Hamiltonian cycles and tolerates
// MAX{psi(d)-1, phi(d)} edge faults, via the lift Phi of Section 3.4.

#include <iostream>
#include <set>

#include "bench_common.hpp"
#include "butterfly/butterfly.hpp"
#include "butterfly/lift.hpp"
#include "core/butterfly_embedding.hpp"
#include "core/disjoint_hc.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace dbr;
using namespace dbr::bench;

void print_tables() {
  heading("Proposition 3.6 - psi(d) disjoint Hamiltonian cycles in F(d,n)");
  {
    TextTable t({"F(d,n)", "nodes", "psi(d)", "built", "Hamiltonian", "disjoint"});
    for (auto [d, n] : {std::pair<Digit, unsigned>{2, 3}, {2, 5}, {3, 2}, {3, 4},
                        {4, 3}, {5, 2}, {5, 4}, {7, 2}, {8, 3}, {9, 2}}) {
      const ButterflyDigraph bf(d, n);
      const auto family = core::butterfly_disjoint_hcs(bf);
      bool all_ham = true;
      for (const auto& hc : family) {
        all_ham = all_ham && hc.size() == bf.num_nodes() &&
                  butterfly::is_butterfly_cycle(bf, hc);
      }
      std::set<std::pair<NodeId, NodeId>> seen;
      bool disjoint = true;
      for (const auto& hc : family) {
        for (std::size_t i = 0; i < hc.size(); ++i) {
          if (!seen.insert({hc[i], hc[(i + 1) % hc.size()]}).second) disjoint = false;
        }
      }
      t.new_row()
          .add("F(" + std::to_string(d) + "," + std::to_string(n) + ")")
          .add(bf.num_nodes())
          .add(core::psi(d))
          .add(family.size())
          .add(std::string(all_ham ? "yes" : "NO"))
          .add(std::string(disjoint ? "yes" : "NO"));
    }
    emit(t);
  }

  heading("Proposition 3.5 - fault-free HC under budget-level edge faults");
  {
    TextTable t({"F(d,n)", "budget", "trials", "successes"});
    Rng rng(seed());
    for (auto [d, n] : {std::pair<Digit, unsigned>{2, 3}, {3, 4}, {4, 3}, {5, 3},
                        {7, 2}, {9, 2}}) {
      const auto ctx = core::InstanceContext::make(d, n);
      const ButterflyDigraph& bf = ctx->butterfly();
      const auto edges = bf.materialize().edge_list();
      const unsigned budget = static_cast<unsigned>(core::max_tolerable_edge_faults(d));
      unsigned ok = 0;
      const unsigned tries = 15;
      for (unsigned trial = 0; trial < tries; ++trial) {
        std::vector<std::pair<NodeId, NodeId>> faults;
        std::vector<Word> pulled_back;
        for (auto idx : rng.sample_distinct(edges.size(), budget)) {
          faults.push_back(edges[idx]);
          pulled_back.push_back(
              butterfly::pull_back_edge(bf, edges[idx].first, edges[idx].second));
        }
        const auto hc = core::solve_butterfly(*ctx, pulled_back);
        if (!hc.has_value() || !butterfly::is_butterfly_cycle(bf, *hc)) continue;
        std::set<std::pair<NodeId, NodeId>> used;
        for (std::size_t i = 0; i < hc->size(); ++i) {
          used.insert({(*hc)[i], (*hc)[(i + 1) % hc->size()]});
        }
        bool avoided = true;
        for (const auto& e : faults) avoided = avoided && !used.contains(e);
        if (avoided) ++ok;
      }
      t.new_row()
          .add("F(" + std::to_string(d) + "," + std::to_string(n) + ")")
          .add(budget)
          .add(tries)
          .add(ok);
    }
    emit(t);
  }

  heading("gcd(d,n) != 1 correctly rejected");
  {
    const ButterflyDigraph bf(2, 4);
    try {
      (void)core::butterfly_disjoint_hcs(bf);
      std::cout << "F(2,4): NOT rejected (bug)\n";
    } catch (const precondition_error&) {
      std::cout << "F(2,4): rejected as expected (gcd(2,4) = 2)\n";
    }
  }
}

void BM_ButterflyLiftFamily(benchmark::State& state) {
  const ButterflyDigraph bf(static_cast<Digit>(state.range(0)),
                            static_cast<unsigned>(state.range(1)));
  for (auto _ : state) {
    auto family = core::butterfly_disjoint_hcs(bf);
    benchmark::DoNotOptimize(family.size());
  }
}
BENCHMARK(BM_ButterflyLiftFamily)->Args({4, 3})->Args({5, 4})->Args({8, 3});

}  // namespace

int main(int argc, char** argv) {
  return dbr::bench::run(argc, argv, &print_tables, "prop_3_butterfly",
                         "Propositions 3.5/3.6: butterfly edge-fault tolerance via the lift Phi");
}
