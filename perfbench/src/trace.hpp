#pragma once

// In-memory span recorder of the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions (nothing
// inside the program is instrumented), kept in memory, and written out as
// JSON lines when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";     ///< layer-qualified name, e.g. "net.encode_reply"
  std::int64_t start_ns = 0;  ///< since the recorder's origin
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the causing span; -1 for a root
  std::uint64_t request = 0;  ///< request id shared by one request's spans
};

/// Per-name aggregate: count, total and self time (duration minus the part
/// covered by child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Single-threaded recorder; one per thread that traces.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span; returns its index for end() and as a child's parent.
  std::int64_t begin(const char* name, std::uint64_t request,
                     std::int64_t parent = -1);
  /// Closes span `index`; returns its duration in microseconds.
  double end(std::int64_t index);

  /// Appends another recorder's spans, re-based onto this one's origin.
  void append(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, SpanTotals> totals() const;
  /// Durations (us) of every span named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;
  /// Writes one JSON object per span, tagged with `source` (span ids and
  /// parents index this recorder's spans). With `requests` set, only spans
  /// of those request ids are written.
  void write_jsonl(std::ostream& out, const char* source,
                   const std::set<std::uint64_t>* requests = nullptr) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
