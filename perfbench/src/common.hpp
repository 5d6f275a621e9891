#pragma once
// Shared plumbing of the perfbench harness: run arguments, wall-clock
// helpers, order statistics, the in-memory span log of traced runs, and the
// result every workload hands back to main().
//
// Spans are recorded by the benchmark around its own calls into the
// library's public entry points; nothing inside src/ is instrumented.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

inline double seconds_since(Clock::time_point t0) {
  return static_cast<double>(ns_between(t0, Clock::now())) * 1e-9;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for the span dump and the serve-cold
  /// corpus; created on demand.
  std::string out_dir;
  /// Code identity handed down by run.py (git commit when known, and a
  /// digest of the compiled sources).
  std::string commit;
  std::string src_digest;
};

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// The bounded tail metric: p90, once at least ten samples lie beyond it.
/// Not p99: on a shared 4-vCPU VM the serve-warm p99 spread 23% over ten
/// runs, most of it machine drift, against 6% for the median. With too few
/// samples for a tail (a run makes about a dozen multi-second broadcasts)
/// the median stands in, `q` = 0.5.
struct Tail {
  double q = 0.5;
  double value = 0;
};
Tail tail_of(const std::vector<double>& xs);

/// Spans kept in memory during a traced run and written out at the end as
/// a Chrome trace-event file. A span names its layer, the operation it
/// belongs to, and the span that caused it (-1 = the operation root).
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t op = 0;
    std::int64_t parent = -1;
    Clock::time_point start{};
    Clock::time_point end{};
    double us() const { return static_cast<double>(ns_between(start, end)) * 1e-3; }
  };

  std::int64_t begin(std::string name, std::uint64_t op,
                     std::int64_t parent = -1);
  /// Closes span `id` and returns its duration in microseconds.
  double end(std::int64_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes the spans as Chrome trace-event JSON; false when the file could
  /// not be written.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for stderr
  /// Measured values by BENCHMARK.json name; main() supplies the units.
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> report;    // human-readable lines, with units
  /// Run metadata as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> meta;

  void fail(std::string message) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(message));
  }
  void add(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
};

/// printf-style rendering of one number, for the human-readable lines.
std::string fmt(const char* format, double value);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 3;

WorkloadResult run_bcast(const Args& args);
WorkloadResult run_serve(const Args& args, bool warm);

}  // namespace perfbench
