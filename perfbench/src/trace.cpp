#include "trace.hpp"


namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

std::int64_t Tracer::begin(const char* name, std::uint64_t request,
                           std::int64_t parent) {
  spans_.push_back(Span{name, now_ns(), 0, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

double Tracer::end(std::int64_t index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
}

void Tracer::append(const Tracer& other) {
  const std::int64_t shift =
      std::chrono::duration_cast<std::chrono::nanoseconds>(other.origin_ - origin_).count();
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    s.start_ns += shift;
    s.end_ns += shift;
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  // Children never overlap one another (the recorder is single-threaded),
  // so the part of a span they cover is the sum of their durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e3;
    SpanTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_us += dur;
    t.self_us += dur - child_us[i];
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

void Tracer::write_jsonl(std::ostream& out, const char* source,
                         const std::set<std::uint64_t>* requests) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (requests && requests->count(s.request) == 0) continue;
    out << "{\"source\":\"" << source << "\",\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
}

}  // namespace perfbench
