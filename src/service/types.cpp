#include "service/types.hpp"

#include <algorithm>
#include <limits>

namespace dbr::service {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNode: return "node";
    case FaultKind::kEdge: return "edge";
    case FaultKind::kMixed: return "mixed";
  }
  return "unknown";
}

const char* to_string(EmbedStatus s) {
  switch (s) {
    case EmbedStatus::kOk: return "ok";
    case EmbedStatus::kNoEmbedding: return "no_embedding";
    case EmbedStatus::kBadRequest: return "bad_request";
    case EmbedStatus::kInternalError: return "internal_error";
  }
  return "unknown";
}

FaultSet FaultSet::from_specs(std::span<const FaultSpec> specs) {
  FaultSet set;
  for (const FaultSpec& f : specs) {
    (f.kind == FaultKind::kEdge ? set.edges : set.nodes).push_back(f.word);
  }
  return set;
}

std::vector<FaultSpec> FaultSet::specs() const {
  std::vector<FaultSpec> out;
  out.reserve(nodes.size() + edges.size());
  for (Word w : nodes) out.push_back({FaultKind::kNode, w});
  for (Word w : edges) out.push_back({FaultKind::kEdge, w});
  return out;
}

namespace {

void sort_unique(std::vector<Word>& words) {
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
}

/// d^e with overflow detection; false when the power escapes 64 bits. A
/// request whose (base, n) overflows is invalid anyway, so canonicalization
/// simply skips the cross-kind collapse for it.
bool checked_pow(std::uint64_t base, unsigned exp, std::uint64_t* out) {
  std::uint64_t r = 1;
  for (unsigned i = 0; i < exp; ++i) {
    if (base != 0 && r > std::numeric_limits<std::uint64_t>::max() / base)
      return false;
    r *= base;
  }
  *out = r;
  return true;
}

}  // namespace

void FaultSet::canonicalize(Digit base, unsigned n) {
  sort_unique(nodes);
  sort_unique(edges);
  if (nodes.empty() || edges.empty()) return;
  // An instance WordSpace cannot represent would be an invalid request
  // anyway; skip the cross-kind collapse so it stays invalid.
  std::uint64_t edge_space = 0;
  if (base < 2 || n < 1 || !checked_pow(base, n + 1, &edge_space)) return;
  const WordSpace ws(base, n);
  // Drop every in-range edge word with a faulty endpoint. Out-of-range
  // words stay verbatim, so invalid requests stay invalid.
  const auto dominated = [&](Word e) {
    if (e >= edge_space) return false;
    const auto [u, v] = ws.edge_endpoints(e);
    return std::binary_search(nodes.begin(), nodes.end(), u) ||
           std::binary_search(nodes.begin(), nodes.end(), v);
  };
  edges.erase(std::remove_if(edges.begin(), edges.end(), dominated),
              edges.end());
}

}  // namespace dbr::service
