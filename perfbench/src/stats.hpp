#pragma once

// Order statistics for the benchmark's reports. Every percentile carries the
// number of samples it was taken from, so a tail figure can be judged by how
// many samples lie beyond it.

#include <cstddef>
#include <vector>

namespace perfbench {

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples strictly above `value`
};

/// Linear-interpolated percentile p in [0, 100] of `values` (copied and
/// sorted). An empty input reports {0, 0, 0}.
Percentile percentile(std::vector<double> values, double p);

/// Median of `values` (percentile 50's value).
double median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& values);

/// Process CPU (user + sys) in microseconds since start.
double process_cpu_us();

/// Peak resident set size (VmHWM) in MiB; 0 when /proc is unreadable.
double peak_rss_mb();

}  // namespace perfbench
