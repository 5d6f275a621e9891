#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "util/json.hpp"

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

Tail tail_of(const std::vector<double>& xs) {
  if (xs.size() >= 100) return {0.9, quantile(xs, 0.9)};
  return {0.5, median(xs)};
}

std::int64_t SpanLog::begin(std::string name, std::uint64_t op,
                            std::int64_t parent) {
  spans_.push_back({std::move(name), op, parent, Clock::now(), {}});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

double SpanLog::end(std::int64_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = Clock::now();
  return s.us();
}

bool SpanLog::write(const std::string& path) const {
  if (spans_.empty()) return true;
  const Clock::time_point origin = spans_.front().start;
  fc::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .field("name", s.name)
        .field("ph", "X")
        .field("pid", std::uint64_t{1})
        .field("tid", std::uint64_t{1})
        .field("ts", static_cast<double>(ns_between(origin, s.start)) * 1e-3)
        .field("dur", s.us());
    w.key("args")
        .begin_object()
        .field("span", std::uint64_t{i})
        .field("op", s.op)
        .field("parent", s.parent)
        .end_object();
    w.end_object();
  }
  w.end_array().end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
