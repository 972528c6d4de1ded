#include "service/strategy.hpp"

#include <array>
#include <cstddef>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/butterfly_embedding.hpp"
#include "core/edge_fault.hpp"
#include "core/ffc.hpp"
#include "core/mixed_fault.hpp"
#include "service/cache.hpp"
#include "util/require.hpp"

namespace dbr::service {

namespace {

constexpr const char* kNoHamiltonianCycle =
    "no fault-free Hamiltonian cycle found (fault set beyond the strategy's "
    "guarantee)";
constexpr const char* kNoMixedRing =
    "no fault-avoiding ring found (the edge pull-back closure of the mixed "
    "fault set leaves no surviving necklace)";

EmbedResult embedded(NodeCycle ring, std::uint64_t lower, std::uint64_t upper) {
  EmbedResult out;
  out.ring = std::move(ring);
  out.ring_length = out.ring.length();
  out.lower_bound = lower;
  out.upper_bound = upper;
  return out;
}

EmbedResult no_embedding(const char* why) {
  EmbedResult out;
  out.status = EmbedStatus::kNoEmbedding;
  out.error = why;
  return out;
}

// --- solve entries ----------------------------------------------------------

EmbedResult ffc_solve(const core::InstanceContext& ctx, const CacheKey& key) {
  core::FfcResult r = core::solve_ffc(ctx, key.faults);
  const auto [lo, hi] =
      core::ffc_cycle_length_bounds(key.base, key.n, key.faults.size());
  return embedded(std::move(r.cycle), lo, hi);
}

/// A Section-3.3 Hamiltonian route: every node, so the envelope is d^n.
template <std::optional<SymbolCycle> (*Solve)(const core::InstanceContext&,
                                              std::span<const Word>)>
EmbedResult hamiltonian_solve(const core::InstanceContext& ctx,
                              const CacheKey& key) {
  const std::optional<SymbolCycle> hc = Solve(ctx, key.faults);
  if (!hc) return no_embedding(kNoHamiltonianCycle);
  const std::uint64_t size = ctx.words().size();
  return embedded(to_node_cycle(ctx.words(), *hc), size, size);
}

/// The lift visits all n d^n butterfly nodes.
EmbedResult butterfly_solve(const core::InstanceContext& ctx,
                            const CacheKey& key) {
  std::optional<std::vector<NodeId>> lifted =
      core::solve_butterfly(ctx, key.faults);
  if (!lifted) return no_embedding(kNoHamiltonianCycle);
  const std::uint64_t size =
      static_cast<std::uint64_t>(key.n) * ctx.words().size();
  return embedded(NodeCycle{std::move(*lifted)}, size, size);
}

EmbedResult mixed_solve(const core::InstanceContext& ctx, const CacheKey& key) {
  core::MixedResult r = core::solve_mixed(ctx, key.faults, key.edge_faults);
  if (!r.cycle) return no_embedding(kNoMixedRing);
  const auto [lo, hi] = core::mixed_ring_length_bounds(
      key.base, key.n, key.faults.size(),
      core::countable_mixed_edge_faults(ctx.words(), key.faults,
                                        key.edge_faults));
  return embedded(std::move(*r.cycle), lo, hi);
}

// --- repair entries ---------------------------------------------------------

core::RepairOutcome ffc_repair(const core::InstanceContext& ctx,
                               const NodeCycle& ring, const CacheKey& solved,
                               const CacheKey& target,
                               core::SolveScratch& scratch) {
  return core::repair_node_ring(ctx, ring, solved.faults, target.faults,
                                scratch);
}

core::RepairOutcome edge_repair(const core::InstanceContext& ctx,
                                const NodeCycle& ring, const CacheKey&,
                                const CacheKey& target, core::SolveScratch&) {
  return core::repair_edge_ring(ctx, ring, target.faults);
}

core::RepairOutcome butterfly_repair(const core::InstanceContext& ctx,
                                     const NodeCycle& ring, const CacheKey&,
                                     const CacheKey& target,
                                     core::SolveScratch&) {
  return core::repair_butterfly_ring(ctx, ring, target.faults);
}

core::RepairOutcome mixed_repair(const core::InstanceContext& ctx,
                                 const NodeCycle& ring, const CacheKey& solved,
                                 const CacheKey& target,
                                 core::SolveScratch& scratch) {
  return core::repair_mixed_ring(ctx, ring, solved.faults, solved.edge_faults,
                                 target.faults, target.edge_faults, scratch);
}

// --- the table --------------------------------------------------------------

constexpr const char* kEdgeKindMessage = "edge strategies require edge faults";
constexpr const char* kEdgeMinNMessage = "edge-fault strategies require n >= 2";

/// Row i describes Strategy(i + 1); kAuto has no row.
constexpr std::array<StrategyOps, 6> kTable{{
    {Strategy::kFfc, "ffc", FaultKind::kNode,
     "ffc strategy requires node faults", 1, "ffc strategy requires n >= 1",
     false, ffc_solve, ffc_repair},
    {Strategy::kEdgeAuto, "edge_auto", FaultKind::kEdge, kEdgeKindMessage, 2,
     kEdgeMinNMessage, false, hamiltonian_solve<core::solve_edge_auto>,
     edge_repair},
    {Strategy::kEdgeScan, "edge_scan", FaultKind::kEdge, kEdgeKindMessage, 2,
     kEdgeMinNMessage, false, hamiltonian_solve<core::solve_edge_scan>,
     edge_repair},
    {Strategy::kEdgePhi, "edge_phi", FaultKind::kEdge, kEdgeKindMessage, 2,
     kEdgeMinNMessage, false, hamiltonian_solve<core::solve_edge_phi>,
     edge_repair},
    {Strategy::kButterfly, "butterfly", FaultKind::kEdge,
     "butterfly strategy takes De Bruijn edge-word faults", 2,
     kEdgeMinNMessage, true, butterfly_solve, butterfly_repair},
    {Strategy::kMixed, "mixed", FaultKind::kMixed,
     "mixed strategy requires the mixed fault kind", 2,
     "mixed-fault strategy requires n >= 2", false, mixed_solve, mixed_repair},
}};

constexpr bool rows_match_their_index() {
  for (std::size_t i = 0; i < kTable.size(); ++i) {
    if (static_cast<std::size_t>(kTable[i].strategy) != i + 1) return false;
  }
  return true;
}
static_assert(rows_match_their_index(),
              "kTable rows must follow the Strategy enum order");

}  // namespace

const StrategyOps& strategy_ops(Strategy strategy) {
  const auto index = static_cast<std::size_t>(strategy);
  ensure(index >= 1 && index <= kTable.size(),
         "kAuto must be resolved before dispatch");
  return kTable[index - 1];
}

const char* to_string(Strategy s) {
  if (s == Strategy::kAuto) return "auto";
  const auto index = static_cast<std::size_t>(s);
  return index <= kTable.size() ? kTable[index - 1].name : "unknown";
}

Strategy resolve_strategy(const EmbedRequest& request) {
  if (request.strategy != Strategy::kAuto) return request.strategy;
  switch (request.fault_kind) {
    case FaultKind::kNode: return Strategy::kFfc;
    case FaultKind::kEdge: return Strategy::kEdgeAuto;
    case FaultKind::kMixed: return Strategy::kMixed;
  }
  return Strategy::kFfc;
}

void require_fault_word(Word word, Word limit, Digit base, unsigned n) {
  if (word < limit) return;
  require(false, "fault word " + std::to_string(word) + " out of range for B(" +
                     std::to_string(base) + "," + std::to_string(n) + ")");
}

void require_instance(const CacheKey& key, const WordSpace& ws) {
  require(key.fault_kind == FaultKind::kMixed || key.edge_faults.empty(),
          "edge_faults requires the mixed fault kind");
  const StrategyOps& ops = strategy_ops(key.strategy);
  require(key.fault_kind == ops.fault_kind, ops.fault_kind_message);
  require(key.n >= ops.min_n, ops.min_n_message);
  if (ops.needs_coprime) {
    require(std::gcd<std::uint64_t, std::uint64_t>(key.base, key.n) == 1,
            "butterfly lift requires gcd(d, n) = 1");
  }
  const Word limit =
      key.fault_kind == FaultKind::kEdge ? ws.edge_word_count() : ws.size();
  for (Word f : key.faults) require_fault_word(f, limit, key.base, key.n);
  for (Word f : key.edge_faults) {
    require_fault_word(f, ws.edge_word_count(), key.base, key.n);
  }
}

}  // namespace dbr::service
