#pragma once

// Seeded traffic of the three benchmark workloads. Everything here is a pure
// function of the seed: the program under test only ever sees the generated
// requests. The instance mix is fixed; the seed picks fault words, the Zipf
// draw sequence and the churn script.

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "service/types.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace perfbench {

using dbr::Digit;
using dbr::Word;
using dbr::service::EmbedRequest;
using dbr::service::FaultKind;
using dbr::service::Strategy;

enum class Workload { kHotReplay, kColdSweep, kChurnSession };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// One (instance, fault kind, strategy) cell of the stateless mix.
struct Slot {
  Digit base;
  unsigned n;
  FaultKind kind;
  Strategy strategy;
};

/// The ten cells of hot_replay and cold_sweep, in Zipf-share order.
const std::vector<Slot>& instance_mix();

/// Number of distinct requests in the hot_replay pool.
inline constexpr std::size_t kHotPoolSize = 64;
/// Zipf exponent of the hot_replay draw.
inline constexpr double kHotZipf = 1.1;

/// A fresh fault set for `slot`: node faults for FFC cells, edge faults
/// within the strategy's guarantee for the edge and butterfly cells.
EmbedRequest draw_request(const Slot& slot, dbr::Rng& rng);

/// 64-bit identity of a request's canonical form (service::canonical_key).
std::uint64_t request_key(const EmbedRequest& request);

/// hot_replay: kHotPoolSize distinct requests; pool[r] uses cell r % 10.
std::vector<EmbedRequest> make_hot_pool(std::uint64_t seed);

/// Inverse-CDF Zipf(s) sampler over ranks [0, n).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t sample(dbr::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// hot_replay draw stream of one connection: pool indices.
class HotStream {
 public:
  HotStream(std::uint64_t seed, unsigned connection);
  std::size_t next() { return zipf_.sample(rng_); }

 private:
  dbr::Rng rng_;
  ZipfSampler zipf_;
};

/// cold_sweep: one seeded sequence of pairwise-distinct requests shared by
/// every connection, with hot_replay's cell shares. Thread-safe.
class ColdStream {
 public:
  explicit ColdStream(std::uint64_t seed);
  EmbedRequest next() DBR_EXCLUDES(mu_);

 private:
  dbr::util::Mutex mu_;
  dbr::Rng rng_ DBR_GUARDED_BY(mu_);
  const ZipfSampler zipf_;
  std::unordered_set<std::uint64_t> seen_ DBR_GUARDED_BY(mu_);
};

/// Requests that build every cold_sweep context without entering the
/// measured stream (drawn from a separate seed stream).
std::vector<EmbedRequest> make_cold_warmup(std::uint64_t seed);

/// churn_session: the instance a connection's session binds to.
struct SessionSpec {
  Digit base;
  unsigned n;
  FaultKind kind;
};

/// Connection 0: node-fault FFC on B(2,12); connection 1: mixed on B(2,10).
SessionSpec churn_session_spec(unsigned connection);

/// One session mutation: add or clear one fault of one kind.
struct Mutation {
  bool add = true;
  FaultKind kind = FaultKind::kNode;
  Word word = 0;
};

/// A connection's churn script. The live fault set stays between kMinFaults
/// and kMaxFaults; every add names an absent fault and every clear a present
/// one, so each mutation changes the session.
class ChurnScript {
 public:
  static constexpr std::size_t kMinFaults = 1;
  static constexpr std::size_t kMaxFaults = 6;
  /// Faults added at the start of set-up.
  static constexpr std::size_t kInitialFaults = 3;
  /// Steps of the set-up's warm-up pass, after the initial faults. They put
  /// the repair path and the result cache through real work, so set-up time
  /// is tens of milliseconds of it rather than a few round trips' latency.
  static constexpr std::size_t kWarmupSteps = 100;
  static constexpr std::size_t kSetupSteps = kInitialFaults + kWarmupSteps;

  ChurnScript(std::uint64_t seed, unsigned connection);

  const SessionSpec& spec() const { return spec_; }
  /// Adds one absent fault (the set-up steps use this directly).
  Mutation add();
  /// The next step: an add or a clear.
  Mutation next();
  /// Set-up step i < kSetupSteps: add() for the initial faults, then next().
  Mutation setup_step(std::size_t i) { return i < kInitialFaults ? add() : next(); }
  /// The stateless request equal to the live fault set.
  EmbedRequest state_request() const;

 private:
  SessionSpec spec_;
  dbr::Rng rng_;
  std::vector<Word> nodes_;
  std::vector<Word> edges_;
};

}  // namespace perfbench
