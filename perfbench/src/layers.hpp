#pragma once

// The traced run's per-layer analysis. It replays the traced window's
// requests through each layer's public functions (net wire codec,
// ShardRouter / EmbedEngine, ContextCache, compute_uncached, EmbedSession)
// on fresh in-process stacks, with spans around every call, and combines
// them with the live server's stats deltas.

#include <array>
#include <string>
#include <vector>

#include "load.hpp"

namespace perfbench {

struct LayerInputs {
  Stack* stack = nullptr;
  const std::array<Tracer, kConnections>* tcp = nullptr;
  /// Receives the replay spans; for churn_session it already holds the
  /// gate replay's session spans.
  Tracer* replay = nullptr;
  dbr::service::EngineStatsSnapshot window_before;  ///< live, before the windows
  dbr::service::EngineStatsSnapshot window_after;   ///< live, after the windows
  dbr::net::ServerStats server;                     ///< live, after the windows
  const GateResult* gate = nullptr;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LayerReport {
  std::vector<Metric> metrics;     ///< exactly the per-layer metric set
  std::vector<std::string> lines;  ///< human-readable detail
};

LayerReport analyse_layers(const LayerInputs& in);

}  // namespace perfbench
