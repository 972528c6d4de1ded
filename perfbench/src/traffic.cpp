#include "traffic.hpp"

#include <algorithm>
#include <cmath>

#include "service/cache.hpp"
#include "util/word.hpp"
#include "verify/oracle.hpp"

namespace perfbench {

using dbr::Rng;
using dbr::WordSpace;

namespace {

// Seed streams: each consumer splits its own, so adding a draw to one
// workload never shifts another's inputs.
constexpr std::uint64_t kHotPoolStream = 1;
constexpr std::uint64_t kHotDrawStream = 100;
constexpr std::uint64_t kColdStream = 200;
constexpr std::uint64_t kColdWarmupStream = 300;
constexpr std::uint64_t kChurnStream = 400;

/// Largest fault count drawn for a cell. Edge cells go up to the strategy's
/// guarantee, and to at least 2: with one fault, B(3,7) would offer only
/// 6561 distinct requests, fewer than a cold_sweep window sends.
std::uint64_t fault_budget(const Slot& slot) {
  if (slot.kind == FaultKind::kNode) return 4;
  return std::max<std::uint64_t>(
      2, dbr::verify::edge_fault_guarantee(slot.strategy, slot.base));
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "hot_replay") return Workload::kHotReplay;
  if (name == "cold_sweep") return Workload::kColdSweep;
  if (name == "churn_session") return Workload::kChurnSession;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kHotReplay:
      return "hot_replay";
    case Workload::kColdSweep:
      return "cold_sweep";
    case Workload::kChurnSession:
      return "churn_session";
  }
  return "?";
}

const std::vector<Slot>& instance_mix() {
  // Cell r takes the Zipf share of ranks r, r+10, ...: about 30%, 16%, 12%,
  // 9%, 7%, 6%, 6%, 5%, 5% and 4%. The costliest cell on both the hit path
  // (longest ring) and the solve path comes first, so p90 falls well inside
  // its cost range and p50 inside a group of cells of similar cost, never on
  // the edge between two cells, where a percentile jumps when the mix
  // shifts by a few samples.
  static const std::vector<Slot> mix = {
      {3, 7, FaultKind::kEdge, Strategy::kButterfly},
      {2, 12, FaultKind::kNode, Strategy::kFfc},
      {4, 6, FaultKind::kEdge, Strategy::kEdgeAuto},
      {2, 11, FaultKind::kNode, Strategy::kFfc},
      {3, 7, FaultKind::kEdge, Strategy::kEdgeAuto},
      {4, 5, FaultKind::kEdge, Strategy::kButterfly},
      {2, 13, FaultKind::kNode, Strategy::kFfc},
      {5, 5, FaultKind::kEdge, Strategy::kEdgeAuto},
      {5, 4, FaultKind::kEdge, Strategy::kButterfly},
      {3, 7, FaultKind::kNode, Strategy::kFfc},
  };
  return mix;
}

EmbedRequest draw_request(const Slot& slot, Rng& rng) {
  const WordSpace ws(slot.base, slot.n);
  const Word space =
      slot.kind == FaultKind::kNode ? ws.size() : ws.edge_word_count();
  const std::uint64_t count = 1 + rng.below(fault_budget(slot));
  EmbedRequest r;
  r.base = slot.base;
  r.n = slot.n;
  r.fault_kind = slot.kind;
  r.strategy = slot.strategy;
  for (const std::uint64_t w : rng.sample_distinct(space, count))
    r.faults.push_back(static_cast<Word>(w));
  return r;
}

std::uint64_t request_key(const EmbedRequest& request) {
  return dbr::service::CacheKeyHash{}(dbr::service::canonical_key(request));
}

std::vector<EmbedRequest> make_hot_pool(std::uint64_t seed) {
  Rng rng = Rng(seed).split(kHotPoolStream);
  const auto& mix = instance_mix();
  std::vector<EmbedRequest> pool;
  std::unordered_set<std::uint64_t> seen;
  while (pool.size() < kHotPoolSize) {
    EmbedRequest r = draw_request(mix[pool.size() % mix.size()], rng);
    if (seen.insert(request_key(r)).second) pool.push_back(std::move(r));
  }
  return pool;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u =
      static_cast<double>(rng.next_u64() >> 11) * (1.0 / 9007199254740992.0);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

HotStream::HotStream(std::uint64_t seed, unsigned connection)
    : rng_(Rng(seed).split(kHotDrawStream + connection)),
      zipf_(kHotPoolSize, kHotZipf) {}

ColdStream::ColdStream(std::uint64_t seed)
    : rng_(Rng(seed).split(kColdStream)), zipf_(kHotPoolSize, kHotZipf) {}

EmbedRequest ColdStream::next() {
  const dbr::util::MutexLock lock(mu_);
  const auto& mix = instance_mix();
  // hot_replay's cell shares: a Zipf rank folded onto the mix.
  const Slot& slot = mix[zipf_.sample(rng_) % mix.size()];
  for (;;) {
    EmbedRequest r = draw_request(slot, rng_);
    if (seen_.insert(request_key(r)).second) return r;
  }
}

std::vector<EmbedRequest> make_cold_warmup(std::uint64_t seed) {
  Rng rng = Rng(seed).split(kColdWarmupStream);
  std::vector<EmbedRequest> out;
  for (const Slot& slot : instance_mix()) out.push_back(draw_request(slot, rng));
  return out;
}

SessionSpec churn_session_spec(unsigned connection) {
  return connection == 0 ? SessionSpec{2, 12, FaultKind::kNode}
                         : SessionSpec{2, 10, FaultKind::kMixed};
}

ChurnScript::ChurnScript(std::uint64_t seed, unsigned connection)
    : spec_(churn_session_spec(connection)),
      rng_(Rng(seed).split(kChurnStream + connection)) {}

Mutation ChurnScript::add() {
  const WordSpace ws(spec_.base, spec_.n);
  const bool edge = spec_.kind == FaultKind::kMixed && (rng_.next_u64() & 1);
  std::vector<Word>& live = edge ? edges_ : nodes_;
  const Word space = edge ? ws.edge_word_count() : ws.size();
  for (;;) {
    const Word w = static_cast<Word>(rng_.below(space));
    const auto it = std::lower_bound(live.begin(), live.end(), w);
    if (it != live.end() && *it == w) continue;
    live.insert(it, w);
    return {true, edge ? FaultKind::kEdge : FaultKind::kNode, w};
  }
}

Mutation ChurnScript::next() {
  const std::size_t live = nodes_.size() + edges_.size();
  const bool grow = live <= kMinFaults || (live < kMaxFaults && (rng_.next_u64() & 1));
  if (grow) return add();
  const std::size_t pick = rng_.below(live);
  const bool edge = pick >= nodes_.size();
  std::vector<Word>& from = edge ? edges_ : nodes_;
  const std::size_t at = edge ? pick - nodes_.size() : pick;
  const Word w = from[at];
  from.erase(from.begin() + static_cast<std::ptrdiff_t>(at));
  return {false, edge ? FaultKind::kEdge : FaultKind::kNode, w};
}

EmbedRequest ChurnScript::state_request() const {
  EmbedRequest r;
  r.base = spec_.base;
  r.n = spec_.n;
  r.fault_kind = spec_.kind;
  r.strategy = Strategy::kAuto;
  r.faults = nodes_;
  if (spec_.kind == FaultKind::kMixed) r.edge_faults = edges_;
  return r;
}

}  // namespace perfbench
