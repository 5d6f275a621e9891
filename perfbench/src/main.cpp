// perfbench: the fastcast benchmark harness. run.py builds this binary from
// the checkout's src/ and runs it as
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --out-dir=<dir> [--commit=<id>] [--src-digest=<hex>]
//
// Workloads (perfbench/README.md says why each exists):
//   bcast-thm1  core::run_fast_broadcast (Theorem 1), k = n messages
//   serve-warm  in-process serve::Service, every measured query a pool hit
//   serve-cold  the same client loop, every query a pool miss + corpus load
//
// Standard output: human-readable metric lines with units, one
// {"meta": ...} line, and as the LAST line one JSON object with exactly the
// keys correct / attempted / failed / metrics. --trace=0 reports the
// end-to-end metrics, --trace=1 the per-layer metrics of a replayed run.
// Any failed output check makes the exit code 1.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/json.hpp"
#include "util/options.hpp"

namespace perfbench {
namespace {

// The metric sets of BENCHMARK.json, in its order, with their units. Every
// run reports all of its mode's names; a per-layer metric of a layer the
// workload never calls reads 0.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kEndToEnd[] = {{"setup_s", "s"},
                                   {"peak_rss_mb", "MB"},
                                   {"op_p50_us", "us"},
                                   {"op_tail_us", "us"},
                                   {"ops_per_s", "1/s"}};
constexpr MetricDef kPerLayer[] = {
    {"graph.build_ms", "ms"},
    {"algo.setup_ms", "ms"},
    {"core.partition_ms", "ms"},
    {"congest.part_bfs_ms", "ms"},
    {"algo.tree_extract_ms", "ms"},
    {"congest.pipeline_ms", "ms"},
    {"congest.ns_per_msg", "ns"},
    {"congest.step_share", "ratio"},
    {"congest.delivery_share", "ratio"},
    {"congest.bookkeep_share", "ratio"},
    {"core.parts", "count"},
    {"core.setup_rounds", "count"},
    {"core.part_bfs_rounds", "count"},
    {"core.bcast_rounds", "count"},
    {"core.messages", "count"},
    {"core.max_edge_congestion", "count"},
    {"core.retries", "count"},
    {"core.rounds_over_floor", "ratio"},
    {"util.json_parse_us", "us"},
    {"serve.parse_us", "us"},
    {"scenario.spec_parse_us", "us"},
    {"serve.acquire_us", "us"},
    {"serve.pool_hit_ratio", "ratio"},
    {"scenario.corpus_load_us", "us"},
    {"scenario.corpus_mb_per_s", "MB/s"},
    {"congest.network_build_us", "us"},
    {"serve.engine_reused_ratio", "ratio"},
    {"scenario.run_us.bfs", "us"},
    {"scenario.run_us.sssp", "us"},
    {"scenario.run_us.mst", "us"},
    {"scenario.run_us.batch-bfs", "us"},
    {"serve.serialize_us", "us"},
    {"serve.response_kb", "KB"},
    {"serve.service_overhead_us", "us"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"}};

const double* find_metric(const WorkloadResult& r, const std::string& name) {
  for (const auto& [metric, value] : r.metrics)
    if (metric == name) return &value;
  return nullptr;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload=bcast-thm1|serve-warm|serve-cold"
               " --seed=<n> --seconds=<s> --trace=0|1 --out-dir=<dir>\n";
  return 2;
}

int run(int argc, char** argv) {
  fc::Options opts(argc, argv);
  Args args;
  args.workload = opts.get("workload", "");
  if (!opts.has("seed")) return usage("--seed is required");
  const std::int64_t seed = opts.get_int("seed", 0);
  if (seed < 0) return usage("--seed must be >= 0");
  args.seed = static_cast<std::uint64_t>(seed);
  args.seconds = opts.get_double("seconds", 10);
  if (!(args.seconds > 0) || args.seconds > 120)
    return usage("--seconds must be in (0, 120]");
  const std::int64_t trace = opts.get_int("trace", 0);
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  args.trace = trace == 1;
  args.out_dir = opts.get("out-dir", "");
  if (args.out_dir.empty()) return usage("--out-dir is required");
  args.commit = opts.get("commit", "unknown");
  args.src_digest = opts.get("src-digest", "unknown");
  std::filesystem::create_directories(args.out_dir);

  WorkloadResult result;
  if (args.workload == "bcast-thm1")
    result = run_bcast(args);
  else if (args.workload == "serve-warm")
    result = run_serve(args, /*warm=*/true);
  else if (args.workload == "serve-cold")
    result = run_serve(args, /*warm=*/false);
  else
    return usage("unknown workload '" + args.workload + "'");

  for (const std::string& line : result.report) std::cout << line << '\n';
  fc::JsonWriter meta;
  meta.begin_object().key("meta").begin_object();
  meta.field("workload", args.workload)
      .field("seed", args.seed)
      .field("trace", args.trace)
      .field("seconds", args.seconds)
      .field("commit", args.commit)
      .field("src_digest", args.src_digest)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  for (const auto& [key, json] : result.meta) meta.key(key).raw(json);
  meta.end_object().end_object();
  std::cout << meta.str() << '\n';

  // The result line: the mode's full metric set, in BENCHMARK.json order.
  std::vector<std::pair<const MetricDef*, double>> values;
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) {
      const double* v = find_metric(result, def.name);
      values.emplace_back(&def, v != nullptr ? *v : 0.0);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      const double* v = find_metric(result, def.name);
      if (v == nullptr)
        throw std::logic_error(std::string("workload left out ") + def.name);
      values.emplace_back(&def, *v);
    }
  }
  for (const auto& [def, value] : values)
    if (!std::isfinite(value))
      result.fail(std::string("metric ") + def->name + " is not finite");
  for (const std::string& f : result.failures)
    std::cerr << "perfbench: check failed: " << f << '\n';

  fc::JsonWriter out;
  out.begin_object()
      .field("correct", result.failed == 0)
      .field("attempted", result.attempted)
      .field("failed", result.failed);
  out.key("metrics").begin_object();
  for (const auto& [def, value] : values) {
    char digits[64];
    std::snprintf(digits, sizeof digits, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out.key(def->name).begin_object().key("value").raw(digits)
        .field("unit", def->unit).end_object();
  }
  out.end_object().end_object();
  std::cout << out.str() << std::endl;
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& err) {
    std::cerr << "perfbench: " << err.what() << '\n';
    return 3;
  }
}
