#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <string>

namespace perfbench {

Percentile percentile(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  out.value = values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
  out.beyond = static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), out.value));
  return out;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0).value;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
