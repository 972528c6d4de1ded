#include "core/butterfly_embedding.hpp"

#include "butterfly/lift.hpp"
#include "core/disjoint_hc.hpp"
#include "core/edge_fault.hpp"
#include "debruijn/cycle.hpp"
#include "nt/numtheory.hpp"
#include "util/require.hpp"

namespace dbr::core {

namespace {

void require_coprime(const ButterflyDigraph& bf) {
  require(nt::gcd(bf.radix(), bf.levels()) == 1,
          "butterfly embedding requires gcd(d, n) = 1 (Section 3.4)");
}

}  // namespace

std::optional<std::vector<NodeId>> solve_butterfly(
    const InstanceContext& ctx, std::span<const Word> debruijn_faults) {
  const ButterflyDigraph& bf = ctx.butterfly();  // requires gcd(d, n) = 1
  const auto hc = solve_edge_auto(ctx, debruijn_faults);
  if (!hc.has_value()) return std::nullopt;
  return butterfly::lift_cycle(bf, to_node_cycle(ctx.words(), *hc));
}

std::vector<std::vector<NodeId>> butterfly_disjoint_hcs(const ButterflyDigraph& bf) {
  require_coprime(bf);
  const WordSpace& ws = bf.columns();
  std::vector<std::vector<NodeId>> out;
  for (const SymbolCycle& hc : disjoint_hamiltonian_cycles(ws.radix(), ws.length())) {
    out.push_back(butterfly::lift_cycle(bf, to_node_cycle(ws, hc)));
  }
  return out;
}

}  // namespace dbr::core
