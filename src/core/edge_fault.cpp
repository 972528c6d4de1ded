#include "core/edge_fault.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/disjoint_hc.hpp"
#include "gf/field.hpp"
#include "nt/numtheory.hpp"
#include "util/require.hpp"

namespace dbr::core {

namespace {

using EdgeSet = std::unordered_set<Word>;

// Splits every digit of an (n+1)-edge-word over Z_(s*t) into its Z_s / Z_t
// halves (v = a*t + b), yielding the corresponding edge words of B(s,n) and
// B(t,n) used by the Rees recursion in Proposition 3.3.
std::pair<Word, Word> split_edge_word(Word e, unsigned n, std::uint64_t s,
                                      std::uint64_t t) {
  std::uint64_t digits_a = 0, digits_b = 0;
  std::uint64_t place_a = 1, place_b = 1;
  for (unsigned i = 0; i <= n; ++i) {
    const std::uint64_t v = e % (s * t);
    e /= (s * t);
    digits_a += (v / t) * place_a;
    digits_b += (v % t) * place_b;
    place_a *= s;
    place_b *= t;
  }
  return {digits_a, digits_b};
}

// Prime-power base case: f <= d - 2 is always satisfiable. The GF(q) field
// and maximal-cycle family come precomputed from the context; the fault
// scan below is the only per-solve work.
std::optional<SymbolCycle> phi_prime_power(const InstanceContext& ctx,
                                           std::uint64_t q,
                                           const std::vector<Word>& faults) {
  const MaximalCycleFamily& family = ctx.maximal_family(q);
  const WordSpace ws(static_cast<Digit>(q), ctx.words().length());
  const EdgeSet fault_set(faults.begin(), faults.end());
  for (gf::Field::Elem s = 0; s < q; ++s) {
    const SymbolCycle shifted = family.shifted_cycle(s);
    if (!avoids_edges(ws, shifted, faults)) continue;
    for (gf::Field::Elem alpha = 0; alpha < q; ++alpha) {
      if (alpha == s) continue;
      const auto [e1, e2] = family.insertion_pair(s, alpha);
      if (fault_set.contains(e1) || fault_set.contains(e2)) continue;
      return family.hamiltonian_cycle_at(s, alpha);
    }
  }
  return std::nullopt;
}

std::optional<SymbolCycle> phi_construction(const InstanceContext& ctx,
                                            std::uint64_t d,
                                            std::vector<Word> faults) {
  const auto pf = nt::factor(d);
  if (pf.size() == 1) return phi_prime_power(ctx, d, faults);
  // d = s * t with t the largest prime-power factor; split the faults so
  // that each side stays within its own phi budget.
  const unsigned n = ctx.words().length();
  const std::uint64_t t = pf.back().value();
  const std::uint64_t s = d / t;
  const std::uint64_t budget_s = phi_edge_bound(s);
  std::vector<Word> faults_a, faults_b;
  for (Word e : faults) {
    const auto [ea, eb] = split_edge_word(e, n, s, t);
    if (faults_a.size() < budget_s) {
      faults_a.push_back(ea);
    } else {
      faults_b.push_back(eb);
    }
  }
  // Every prime-power leaf of the recursion is a full prime-power factor of
  // the original base, so the context's family map covers both branches.
  const auto a = phi_construction(ctx, s, std::move(faults_a));
  if (!a.has_value()) return std::nullopt;
  const auto b = phi_construction(ctx, t, std::move(faults_b));
  if (!b.has_value()) return std::nullopt;
  return rees_compose(*a, *b, t);
}

void require_edge_instance(const InstanceContext& ctx,
                           std::span<const Word> faulty_edge_words) {
  require(ctx.supports_edge_faults(), "requires d >= 2 and n >= 2");
  for (Word e : faulty_edge_words) {
    require(e < ctx.words().edge_word_count(), "faulty edge word out of range");
  }
}

}  // namespace

std::optional<SymbolCycle> solve_edge_scan(
    const InstanceContext& ctx, std::span<const Word> faulty_edge_words) {
  require_edge_instance(ctx, faulty_edge_words);
  const PsiFamilyIndex& family = ctx.psi_family();
  const auto idx = family.first_avoiding(faulty_edge_words);
  if (!idx.has_value()) return std::nullopt;
  return family.cycles[*idx];
}

std::optional<SymbolCycle> solve_edge_phi(
    const InstanceContext& ctx, std::span<const Word> faulty_edge_words) {
  require_edge_instance(ctx, faulty_edge_words);
  std::vector<Word> faults(faulty_edge_words.begin(), faulty_edge_words.end());
  std::sort(faults.begin(), faults.end());
  faults.erase(std::unique(faults.begin(), faults.end()), faults.end());
  auto result = phi_construction(ctx, ctx.base(), std::move(faults));
  if (result.has_value() &&
      !avoids_edges(ctx.words(), *result, faulty_edge_words)) {
    return std::nullopt;  // over-budget split landed a fault on both sides
  }
  return result;
}

std::optional<SymbolCycle> solve_edge_auto(
    const InstanceContext& ctx, std::span<const Word> faulty_edge_words) {
  // Proposition 3.4: take whichever construction covers more faults; try
  // the cheaper guarantee first, then fall back to the other.
  const std::uint64_t f = faulty_edge_words.size();
  if (f + 1 <= psi(ctx.base())) {
    auto via_family = solve_edge_scan(ctx, faulty_edge_words);
    if (via_family.has_value()) return via_family;
  }
  auto via_phi = solve_edge_phi(ctx, faulty_edge_words);
  if (via_phi.has_value()) return via_phi;
  return solve_edge_scan(ctx, faulty_edge_words);
}

}  // namespace dbr::core
