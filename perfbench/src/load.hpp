#pragma once

// The live side of the benchmark: an in-process net::Server on loopback
// (over one EmbedEngine, or a ShardRouter for hot_replay), two blocking
// closed-loop client connections, the timed window, and the correctness
// gate over every reply.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "service/engine.hpp"
#include "service/fabric.hpp"
#include "trace.hpp"
#include "traffic.hpp"

namespace perfbench {

/// Closed-loop client connections, each with one request in flight.
inline constexpr unsigned kConnections = 2;
/// Server worker threads.
inline constexpr std::size_t kServerWorkers = 2;
/// Shards of the hot_replay fabric.
inline constexpr std::size_t kFabricShards = 4;
/// Traced operations the traced run replays per layer, over all connections.
inline constexpr std::size_t kReplayCap = 1000;
/// Per-connection operations per second the sample logs reserve room for.
inline constexpr double kSamplesPerSecond = 20000;

/// Options of the engine a workload's server fronts. The benchmark sets
/// only incremental_repair (churn_session); everything else is the default.
dbr::service::EngineOptions engine_options(Workload w);

/// Operations after which the window reads peak RSS (see WindowPair).
std::uint64_t rss_checkpoint_ops(Workload w);

/// One measured operation: a stateless solve, or (churn_session) one step
/// made of a mutation and a session solve.
struct Sample {
  double end_s = 0.0;   ///< completion time since the window opened
  double rtt_us = 0.0;  ///< client-observed round trip (both ops of a step)
  /// The load generator's own work for this operation (drawing the request,
  /// hashing the reply), taken out of cpu_us_per_op.
  double client_us = 0.0;
  bool failed = false;
  bool traced = false;          ///< started while client spans were recorded
  std::uint64_t hash = 0;       ///< answer_hash of the solve reply
  std::uint32_t reply_words = 0;  ///< ring words in the solve reply
  bool cache_hit = false;       ///< the server reported a result-cache hit
  std::size_t request = 0;      ///< hot: pool index; cold: index into requests
  Mutation mutation;            ///< churn_session: this step's mutation
};

/// Everything one connection sent and got back, in order.
struct ConnLog {
  std::vector<Sample> setup;    ///< warm-up replies (not timed)
  std::vector<Sample> samples;  ///< measured-window replies
  std::vector<EmbedRequest> requests;  ///< cold_sweep: requests by index
  std::string error;            ///< first failure, for the report
};

/// A running server stack plus its connected clients, built by the set-up
/// phase (construction and warm-up pass) that setup_s times.
class Stack {
 public:
  Stack(Workload workload, std::uint64_t seed);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  Workload workload() const { return workload_; }
  std::uint64_t seed() const { return seed_; }
  const std::vector<EmbedRequest>& hot_pool() const { return hot_pool_; }
  ConnLog& log(unsigned c) { return logs_[c]; }

  /// One measured operation on connection c (see Sample).
  Sample step(unsigned c, Tracer* tracer, std::uint64_t request_id);

  dbr::service::EngineStatsSnapshot engine_stats() const;
  dbr::net::ServerStats server_stats() const { return server_->stats(); }
  /// Connection c hit a transport error; its loop stops.
  bool transport_lost(unsigned c) const { return transport_lost_[c]; }

 private:
  Sample solve(unsigned c, const EmbedRequest& request, Tracer* tracer,
               std::uint64_t request_id, std::int64_t parent);
  Sample session_solve(unsigned c, Tracer* tracer, std::uint64_t request_id,
                       std::int64_t parent);
  bool mutate(unsigned c, const Mutation& m);

  Workload workload_;
  std::uint64_t seed_;
  std::unique_ptr<dbr::service::EmbedEngine> engine_;
  std::unique_ptr<dbr::service::ShardRouter> fabric_;
  std::unique_ptr<dbr::net::Server> server_;
  std::array<dbr::net::Client, kConnections> clients_;
  std::array<ConnLog, kConnections> logs_;
  std::vector<EmbedRequest> hot_pool_;
  std::array<std::optional<HotStream>, kConnections> hot_streams_;
  std::unique_ptr<ColdStream> cold_stream_;
  std::array<std::unique_ptr<ChurnScript>, kConnections> scripts_;
  std::array<bool, kConnections> transport_lost_{};
};

/// Aggregates of one set of sub-windows, reduced to medians across them.
struct WindowMetrics {
  double latency_p50_us = 0.0;
  double latency_p90_us = 0.0;
  double throughput_rps = 0.0;
  double cpu_us_per_op = 0.0;
  double client_us_per_op = 0.0;  ///< load-generator work taken out of cpu/op
  std::size_t samples = 0;       ///< operations counted in these sub-windows
  std::size_t sub_windows = 0;   ///< sub-windows the medians are taken over
  std::size_t p90_beyond = 0;    ///< pooled samples above the pooled p90
  double overall_p50_us = 0.0;   ///< pooled percentiles, for the report
  double overall_p90_us = 0.0;
  /// Each sub-window's figures, in order, for the report.
  std::vector<double> p50s, p90s, rps, cpu;
};

/// The measured window: untraced sub-windows, traced ones (empty without
/// tracers), and the operation counts over the whole window.
struct WindowPair {
  WindowMetrics plain;
  WindowMetrics traced;
  /// VmHWM once rss_checkpoint_ops() operations completed, or at the end
  /// of the window when it ended first (rss_checkpoint_reached false).
  double peak_rss_mb = 0.0;
  bool rss_checkpoint_reached = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs both connections' closed loops for `seconds`, split into
/// `sub_windows` equal slices; appends to each connection's log. With
/// `tracers` set, every other sub-window records a client-side root span
/// per operation, so traced and untraced figures come from interleaved
/// slices of one run.
WindowPair run_window(Stack& stack, double seconds, std::size_t sub_windows,
                      std::array<Tracer, kConnections>* tracers);

/// The stateless form of each measured sample of connection c, in order:
/// the request itself for hot_replay and cold_sweep, the session's fault
/// set after the step for churn_session.
std::vector<EmbedRequest> sample_requests(Stack& stack, unsigned c);

/// Outcome of the correctness gate.
struct GateResult {
  std::uint64_t checked = 0;     ///< replies compared or oracle-checked
  std::uint64_t mismatches = 0;  ///< replies that failed the gate
  std::uint64_t oracle_runs = 0; ///< distinct session answers oracle-checked
  std::string first_problem;
  /// churn_session with a tracer: reply frame bytes of the replayed solves.
  std::vector<double> reply_bytes;
};

/// Checks every logged reply of `stack` (set-up and measured). For
/// churn_session this replays both connections' scripts through in-process
/// sessions; with `tracer` set, that replay records per-step spans.
GateResult run_gate(Stack& stack, Tracer* tracer);

}  // namespace perfbench
