#pragma once

/// \file
/// Request/response data types of the embedding query service: strategies,
/// fault kinds, the heterogeneous FaultSet, and the EmbedRequest /
/// EmbedResult / EmbedResponse triple shared by every service layer.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "debruijn/cycle.hpp"
#include "util/word.hpp"

namespace dbr::service {

/// Which of the paper's constructions answers the query.
enum class Strategy : std::uint8_t {
  kAuto = 0,   ///< node faults -> kFfc; edge faults -> kEdgeAuto; mixed -> kMixed.
  kFfc,        ///< necklace FFC construction (Chapter 2, node faults).
  kEdgeAuto,   ///< psi-family scan then phi-construction (Proposition 3.4).
  kEdgeScan,   ///< psi(d)-family scan only (Proposition 3.2).
  kEdgePhi,    ///< recursive phi(d)-construction only (Proposition 3.3).
  kButterfly,  ///< edge-fault-free HC lifted to F(d,n) (Proposition 3.5).
  kMixed,      ///< node+edge fault composition (core/mixed_fault.hpp): the
               ///< Section 3.3 Hamiltonian route for node-free sets, the
               ///< FFC pull-back of Chapter 2 otherwise.
};

/// How the request's fault words are interpreted.
enum class FaultKind : std::uint8_t {
  kNode = 0,  ///< n-digit node words of B(d,n).
  kEdge = 1,  ///< (n+1)-digit edge words (WordSpace::edge_word).
  kMixed = 2, ///< both at once: node words in EmbedRequest::faults, edge
              ///< words in EmbedRequest::edge_faults (one fault epoch may
              ///< lose routers and links together).
};

/// One fault tagged with its kind; the element type of the heterogeneous
/// FaultSet. `kind` is kNode or kEdge (never kMixed: a single fault is
/// always one or the other).
struct FaultSpec {
  FaultKind kind = FaultKind::kNode;  ///< kNode or kEdge.
  Word word = 0;                      ///< n-digit node word or (n+1)-digit edge word.

  /// Orders node faults before edge faults, then by word: the canonical
  /// mixed-kind ordering of FaultSet::canonicalize.
  auto operator<=>(const FaultSpec&) const = default;
};

/// A heterogeneous fault set on B(d,n): faulty node words and faulty edge
/// words held side by side. This is the presentation-independent identity
/// of a mixed-fault request; canonicalize() is the single place where
/// cross-kind redundancy collapses, shared by the engine's cache keying and
/// the stateful session.
struct FaultSet {
  std::vector<Word> nodes;  ///< faulty n-digit node words.
  std::vector<Word> edges;  ///< faulty (n+1)-digit edge words.

  /// Splits kind-tagged faults into the two lists (presentation order kept).
  static FaultSet from_specs(std::span<const FaultSpec> specs);

  /// The kind-tagged view in canonical mixed-kind order: all node faults
  /// (ascending), then all edge faults (ascending). Call canonicalize()
  /// first if the lists may be unsorted.
  std::vector<FaultSpec> specs() const;

  /// Canonical form for the instance B(base, n): each list sorted and
  /// deduplicated, then every edge fault *dominated* by a node fault
  /// dropped — an edge whose head or tail endpoint is itself a faulty node
  /// is redundant, since any ring avoiding the node can never traverse the
  /// edge (the "dead router implies its incident links" collapse). Words
  /// out of range for the instance are kept verbatim: range checking is
  /// the request validator's job, and an invalid request must not
  /// canonicalize into a valid one.
  void canonicalize(Digit base, unsigned n);

  bool empty() const { return nodes.empty() && edges.empty(); }
  /// Total faults across both kinds.
  std::uint64_t size() const { return nodes.size() + edges.size(); }

  bool operator==(const FaultSet&) const = default;
};

/// Outcome classification of one embedding query.
enum class EmbedStatus : std::uint8_t {
  kOk = 0,       ///< a fault-avoiding ring was embedded.
  kNoEmbedding,  ///< the strategy ran out of candidates (beyond-guarantee fault set).
  kBadRequest,   ///< the request violates a documented precondition.
  kInternalError,  ///< a library invariant failed; possibly transient, never cached.
};

/// Short lower-case name of the strategy (e.g. "ffc", "mixed"); the names
/// live in the strategy table (service/strategy.cpp).
const char* to_string(Strategy s);
/// Short lower-case name of the fault kind ("node", "edge", "mixed").
const char* to_string(FaultKind k);
/// Short lower-case name of the status (e.g. "ok", "no_embedding").
const char* to_string(EmbedStatus s);

/// One embedding query: find a fault-avoiding ring in B(base, n) (or, for
/// kButterfly, in F(base, n) by lifting) given a set of faulty nodes,
/// edges, or — for FaultKind::kMixed — both at once.
struct EmbedRequest {
  Digit base = 2;              ///< radix d of B(d,n).
  unsigned n = 3;              ///< tuple length n of B(d,n).
  FaultKind fault_kind = FaultKind::kNode;  ///< interpretation of the fault words.
  /// Faulty node words (kNode, kMixed) or edge words (kEdge); order and
  /// repeats are irrelevant (the engine canonicalizes before dispatch and
  /// caching).
  std::vector<Word> faults;
  /// Faulty (n+1)-digit edge words of a kMixed request; must be empty for
  /// the homogeneous fault kinds. Order/repeats irrelevant, and edge words
  /// dominated by a faulty node collapse away (FaultSet::canonicalize).
  std::vector<Word> edge_faults;
  Strategy strategy = Strategy::kAuto;  ///< construction choice; kAuto dispatches by kind.

  /// Installs a heterogeneous fault set: nodes into `faults`, edges into
  /// `edge_faults`, and fault_kind to kMixed.
  void set_faults(FaultSet set) {
    fault_kind = FaultKind::kMixed;
    faults = std::move(set.nodes);
    edge_faults = std::move(set.edges);
  }
};

/// The cacheable payload of an answer: a pure function of the canonicalized
/// request, so cached copies are bit-identical to fresh computations.
/// Serve-time fields (cache status, serve latency) live on EmbedResponse.
struct EmbedResult {
  EmbedStatus status = EmbedStatus::kOk;     ///< outcome of the construction.
  Strategy strategy_used = Strategy::kAuto;  ///< concrete strategy dispatched.
  /// The ring: node words of B(d,n), or butterfly node ids for kButterfly.
  NodeCycle ring;
  std::uint64_t ring_length = 0;
  /// The paper's guarantee envelope on |ring| for this instance (see
  /// ffc_cycle_length_bounds and the strategy table in strategy.hpp).
  std::uint64_t lower_bound = 0;
  std::uint64_t upper_bound = 0;
  /// Wall time of the original (uncached) construction.
  double compute_micros = 0.0;
  std::string error;  ///< set when status != kOk
  /// The validate_responses oracle rejected the computed answer and this
  /// result is its kInternalError quarantine wrapper (engine.hpp). Never
  /// cached; batch latency percentiles exclude quarantined responses (they
  /// measure the oracle's veto path, not serving).
  bool quarantined = false;

  /// Equality of everything deterministic, ignoring compute_micros.
  bool same_embedding(const EmbedResult& o) const {
    return status == o.status && strategy_used == o.strategy_used &&
           ring == o.ring && ring_length == o.ring_length &&
           lower_bound == o.lower_bound && upper_bound == o.upper_bound &&
           error == o.error;
  }
};

/// One served answer. `result` is shared with the cache, never mutated.
struct EmbedResponse {
  std::shared_ptr<const EmbedResult> result;
  bool cache_hit = false;  ///< served whole from the result cache
  /// The miss path reused a shared per-(base, n) InstanceContext instead of
  /// rebuilding the fault-independent precompute. Always false on a result
  /// cache hit (the context was never consulted).
  bool context_cache_hit = false;
  /// Provenance: this answer was produced by locally splicing the previous
  /// ring across a fault-set delta (core/repair via EmbedSession under
  /// EngineOptions::incremental_repair), not by a full solve. Repaired
  /// results are validity- and envelope-equivalent to a cold solve but may
  /// be a different valid ring; they never enter the result cache.
  bool repaired = false;
  double latency_micros = 0.0;  ///< end-to-end serve time of this query

  bool ok() const { return result && result->status == EmbedStatus::kOk; }
};

}  // namespace dbr::service
