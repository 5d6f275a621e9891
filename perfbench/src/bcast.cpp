// Workload bcast-thm1: the paper's Theorem 1 k-broadcast,
// core::run_fast_broadcast on random_regular:n=4096,d=128 with λ = d (the
// bench_broadcast E1a convention: a random d-regular graph is d-connected
// w.h.p.) and k = n messages at seed-keyed origins — about 19M messages
// over ~600 rounds in 7 edge-disjoint parts.
//
// Untraced: repeated calls on one graph, host wall time per call. Each call
// must report complete=true and the same rounds/messages as the first.
// Traced: each untraced call is followed by a replay of the same
// computation through the public entry points run_fast_broadcast is built
// from (leader election + algo::run_bfs + IdAssignment, then
// random_edge_partition, run_edge_disjoint over DistributedBfs, tree
// extraction, run_edge_disjoint over PipelineBroadcast with full-mode
// Telemetry). The replay's per-phase rounds and messages must equal the
// untraced report exactly.

#include <algorithm>
#include <memory>
#include <string>

#include "algo/bfs.hpp"
#include "algo/id_assignment.hpp"
#include "algo/leader_election.hpp"
#include "algo/pipeline_broadcast.hpp"
#include "common.hpp"
#include "congest/runner.hpp"
#include "congest/telemetry.hpp"
#include "core/fast_broadcast.hpp"
#include "graph/partition.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using fc::NodeId;
namespace algo = fc::algo;
namespace congest = fc::congest;
namespace core = fc::core;

constexpr NodeId kN = 4096;
constexpr std::uint32_t kDegree = 128;  // = λ by construction

struct Inputs {
  std::string spec;
  fc::Graph graph;
  std::vector<algo::PlacedMessage> messages;
};

Inputs make_inputs(std::uint64_t seed, double* build_ms) {
  Inputs in;
  in.spec = "random_regular:n=" + std::to_string(kN) +
            ",d=" + std::to_string(kDegree) + ",seed=" + std::to_string(seed);
  const Clock::time_point t0 = Clock::now();
  in.graph = fc::scenario::build_graph(in.spec);
  *build_ms = static_cast<double>(ns_between(t0, Clock::now())) * 1e-6;
  fc::Rng rng(fc::mix64(seed, 0x62636173742d6bULL));
  in.messages.reserve(kN);
  for (std::uint64_t i = 0; i < kN; ++i)
    in.messages.push_back(
        {static_cast<NodeId>(rng.below(in.graph.node_count())), i, rng()});
  return in;
}

/// What the replay measured, in the fields FastBroadcastReport carries.
struct Replay {
  core::FastBroadcastReport report;
  double setup_ms = 0, partition_ms = 0, part_bfs_ms = 0, tree_ms = 0,
         pipeline_ms = 0;
  std::uint64_t pipeline_messages = 0;
  double step_share = 0, delivery_share = 0, bookkeep_share = 0;
  double op_us = 0, layer_us = 0;
};

/// Replays run_fast_broadcast(g, λ, messages, opts) call by call, with a
/// span around each layer. Mirrors core/fast_broadcast.cpp's phase order
/// and retry rule, so any divergence shows as a replay mismatch.
Replay replay(const Inputs& in, const core::FastBroadcastOptions& opts,
              SpanLog& log, std::uint64_t op) {
  const fc::Graph& g = in.graph;
  Replay out;
  core::FastBroadcastReport& rep = out.report;
  rep.k = in.messages.size();
  rep.lambda_used = kDegree;
  congest::RunOptions ropts;
  ropts.max_rounds = opts.max_rounds;
  ropts.force_dense = opts.force_dense;

  const std::int64_t root_span = log.begin("bcast.replay", op);

  // Phase 1: leader election, BFS on G, Lemma 3 numbering.
  std::int64_t s = log.begin("algo.setup", op, root_span);
  NodeId root = 0;
  {
    congest::Network net(g);
    algo::LeaderElection le(g);
    const auto res = net.run(le, ropts);
    rep.setup_rounds += res.rounds;
    rep.messages += res.messages;
    root = le.leader();
  }
  const auto bfs = algo::run_bfs(g, root, ropts);
  rep.setup_rounds += bfs.cost.rounds;
  rep.messages += bfs.cost.messages;
  std::vector<std::uint64_t> counts(g.node_count(), 0);
  for (const auto& m : in.messages) ++counts[m.origin];
  congest::Network id_net(g);
  algo::IdAssignment ids(g, bfs.tree, counts);
  const auto id_res = id_net.run(ids, ropts);
  rep.setup_rounds += id_res.rounds;
  rep.messages += id_res.messages;
  std::vector<std::uint64_t> next(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) next[v] = ids.first_id(v);
  std::vector<algo::PlacedMessage> numbered;
  numbered.reserve(in.messages.size());
  for (const auto& m : in.messages)
    numbered.push_back({m.origin, next[m.origin]++, m.payload});
  out.setup_ms = log.end(s) * 1e-3;

  rep.parts = fc::theorem2_part_count(kDegree, g.node_count(), opts.C);
  const std::uint32_t parts = rep.parts;
  std::uint64_t seed = opts.seed;
  for (std::uint32_t attempt = 0;; ++attempt) {
    s = log.begin("core.partition", op, root_span);
    fc::EdgePartition partition = fc::random_edge_partition(g, parts, seed);
    out.partition_ms += log.end(s) * 1e-3;

    s = log.begin("congest.part_bfs", op, root_span);
    std::vector<std::unique_ptr<algo::DistributedBfs>> bfs_algs;
    std::vector<congest::EdgeDisjointInstance> bfs_work;
    for (auto& part : partition.parts) {
      bfs_algs.push_back(
          std::make_unique<algo::DistributedBfs>(part.graph, root));
      bfs_work.push_back({&part, bfs_algs.back().get()});
    }
    const auto bfs_res = congest::run_edge_disjoint(g, bfs_work, ropts);
    out.part_bfs_ms += log.end(s) * 1e-3;
    rep.messages += bfs_res.messages;

    s = log.begin("algo.tree_extract", op, root_span);
    std::vector<algo::SpanningTree> trees;
    bool spanning = true;
    for (std::uint32_t i = 0; i < parts && spanning; ++i) {
      trees.push_back(
          algo::extract_tree(partition.parts[i].graph, *bfs_algs[i]));
      spanning = trees.back().covered == g.node_count();
    }
    out.tree_ms += log.end(s) * 1e-3;
    if (!spanning) {
      // run_fast_broadcast charges a failed sweep to search_rounds and
      // recolours with the same mix as core/fast_broadcast.cpp.
      rep.search_rounds += bfs_res.rounds;
      if (attempt == opts.max_retries) break;
      seed = fc::mix64(seed, 0x66617374636173ULL);
      continue;
    }
    rep.part_bfs_rounds = bfs_res.rounds;
    rep.retries = attempt;

    s = log.begin("core.assign", op, root_span);
    const std::uint64_t k = numbered.size();
    const std::uint64_t K = (k + parts - 1) / parts;
    std::vector<std::vector<algo::PlacedMessage>> assigned(parts);
    for (const auto& m : numbered)
      assigned[std::min<std::uint64_t>(m.id / std::max<std::uint64_t>(K, 1),
                                       parts - 1)]
          .push_back(m);
    log.end(s);

    s = log.begin("congest.pipeline", op, root_span);
    congest::Telemetry telemetry(congest::TelemetryMode::kFull);
    congest::RunOptions popts = ropts;
    popts.telemetry = &telemetry;
    std::vector<std::unique_ptr<algo::PipelineBroadcast>> bc_algs;
    std::vector<congest::EdgeDisjointInstance> bc_work;
    for (std::uint32_t i = 0; i < parts; ++i) {
      bc_algs.push_back(std::make_unique<algo::PipelineBroadcast>(
          partition.parts[i].graph, trees[i], std::move(assigned[i])));
      bc_work.push_back({&partition.parts[i], bc_algs.back().get()});
    }
    const auto bc_res = congest::run_edge_disjoint(g, bc_work, popts);
    out.pipeline_ms = log.end(s) * 1e-3;
    rep.broadcast_rounds = bc_res.rounds;
    rep.messages += bc_res.messages;
    out.pipeline_messages = bc_res.messages;
    rep.max_edge_congestion = std::max(bfs_res.max_parent_edge_congestion(),
                                       bc_res.max_parent_edge_congestion());
    const congest::TelemetrySnapshot snap = telemetry.snapshot();
    std::uint64_t step = 0, delivery = 0, bookkeep = 0;
    for (const auto& r : snap.series) {
      step += r.step_ns;
      delivery += r.delivery_ns;
      bookkeep += r.bookkeep_ns;
    }
    const double wall = static_cast<double>(std::max<std::uint64_t>(snap.wall_ns, 1));
    out.step_share = static_cast<double>(step) / wall;
    out.delivery_share = static_cast<double>(delivery) / wall;
    out.bookkeep_share = static_cast<double>(bookkeep) / wall;

    s = log.begin("core.verify", op, root_span);
    rep.complete = bc_res.finished;
    for (std::uint32_t i = 0; i < parts && rep.complete; ++i)
      for (NodeId v = 0; v < g.node_count(); ++v)
        if (bc_algs[i]->received_count(v) != bc_algs[i]->k() ||
            bc_algs[i]->digest(v) != bc_algs[i]->expected_digest()) {
          rep.complete = false;
          break;
        }
    log.end(s);
    break;
  }
  rep.total_rounds = rep.setup_rounds + rep.part_bfs_rounds +
                     rep.broadcast_rounds + rep.search_rounds;
  out.op_us = log.end(root_span);
  for (const auto& span : log.spans())
    if (span.parent == root_span) out.layer_us += span.us();
  return out;
}

std::string differences(const core::FastBroadcastReport& a,
                        const core::FastBroadcastReport& b) {
  std::string d;
  auto cmp = [&](const char* name, std::uint64_t x, std::uint64_t y) {
    if (x != y)
      d += std::string(" ") + name + "=" + std::to_string(x) + "/" +
           std::to_string(y);
  };
  cmp("parts", a.parts, b.parts);
  cmp("setup_rounds", a.setup_rounds, b.setup_rounds);
  cmp("part_bfs_rounds", a.part_bfs_rounds, b.part_bfs_rounds);
  cmp("broadcast_rounds", a.broadcast_rounds, b.broadcast_rounds);
  cmp("search_rounds", a.search_rounds, b.search_rounds);
  cmp("total_rounds", a.total_rounds, b.total_rounds);
  cmp("messages", a.messages, b.messages);
  cmp("max_edge_congestion", a.max_edge_congestion, b.max_edge_congestion);
  cmp("retries", a.retries, b.retries);
  cmp("complete", a.complete, b.complete);
  return d;
}

}  // namespace

WorkloadResult run_bcast(const Args& args) {
  WorkloadResult out;

  // Set-up: generate the graph and the messages, kSetupRepeats times.
  std::vector<double> setup_s, build_ms;
  Inputs in;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    double ms = 0;
    in = make_inputs(args.seed, &ms);
    setup_s.push_back(seconds_since(t0));
    build_ms.push_back(ms);
  }

  core::FastBroadcastOptions opts;
  opts.seed = args.seed;
  const double floor = core::theorem3_lower_bound(in.messages.size(), kDegree);

  // Every call is checked: complete, and identical to the first call.
  core::FastBroadcastReport first;
  auto call = [&](double* wall_us) {
    const Clock::time_point t0 = Clock::now();
    core::FastBroadcastReport r =
        core::run_fast_broadcast(in.graph, kDegree, in.messages, opts);
    *wall_us = static_cast<double>(ns_between(t0, Clock::now())) * 1e-3;
    ++out.attempted;
    if (!r.complete) out.fail("broadcast incomplete: " + r.str());
    if (out.attempted == 1) first = r;
    const std::string d = differences(r, first);
    if (!d.empty()) out.fail("broadcast differs from the first call:" + d);
    return r;
  };

  // Warm-up call (unmeasured): thread pool start-up, first-touch pages.
  double warm_us = 0;
  call(&warm_us);

  std::vector<double> call_us;
  SpanLog log;
  std::vector<Replay> replays;
  const Clock::time_point start = Clock::now();
  do {
    double us = 0;
    const core::FastBroadcastReport r = call(&us);
    call_us.push_back(us);
    if (args.trace) {
      replays.push_back(replay(in, opts, log, replays.size()));
      const std::string d = differences(replays.back().report, r);
      if (!d.empty()) out.fail("replay differs from run_fast_broadcast:" + d);
    }
  } while (seconds_since(start) < args.seconds);

  const std::size_t threads = fc::ThreadPool::global().size();
  const double rounds_over_floor =
      static_cast<double>(first.total_rounds) / floor;
  const Tail tail = tail_of(call_us);
  double total_us = 0;
  for (const double us : call_us) total_us += us;

  fc::JsonWriter specs;
  specs.begin_array().value(fc::scenario::Registry::instance()
                                .canonical(fc::scenario::GraphSpec::parse(in.spec))
                                .to_string())
      .end_array();
  out.meta = {
      {"pool_threads", std::to_string(threads)},
      {"specs", specs.str()},
      {"lambda", std::to_string(kDegree)},
      {"k", std::to_string(in.messages.size())},
      {"setup_repeats", std::to_string(kSetupRepeats)},
      {"op_samples", std::to_string(call_us.size())},
      {"op_tail_quantile", fmt("%.2f", tail.q)},
      {"report", '"' + fc::json_escape(first.str()) + '"'}};

  out.report.push_back("workload bcast-thm1  seed " + std::to_string(args.seed) +
                       "  spec " + in.spec + "  k " +
                       std::to_string(in.messages.size()) + "  lambda " +
                       std::to_string(kDegree) + "  threads " +
                       std::to_string(threads));
  out.report.push_back("  setup_s            " + fmt("%.4f", median(setup_s)) +
                       " s (median of " + std::to_string(kSetupRepeats) + ")");
  out.report.push_back("  fail_ratio         " +
                       fmt("%.4f", static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted)) +
                       " (" + std::to_string(out.failed) + "/" +
                       std::to_string(out.attempted) + " calls)");
  out.report.push_back("  bcast_ms           " + fmt("%.1f", median(call_us) * 1e-3) +
                       " ms (median of " + std::to_string(call_us.size()) +
                       " calls)");
  out.report.push_back("  rounds_over_floor  " + fmt("%.3f", rounds_over_floor) +
                       " (" + std::to_string(first.total_rounds) +
                       " rounds / floor k/lambda = " + fmt("%.1f", floor) + ")");

  if (!args.trace) {
    out.add("setup_s", median(setup_s));
    out.add("peak_rss_mb", peak_rss_mb());
    out.add("op_p50_us", median(call_us));
    out.add("op_tail_us", tail.value);
    out.add("ops_per_s", static_cast<double>(call_us.size()) / (total_us * 1e-6));
    out.report.push_back("  peak_rss_mb        " + fmt("%.1f", peak_rss_mb()) + " MB");
    return out;
  }

  auto med = [&](auto field) {
    std::vector<double> xs;
    for (const Replay& r : replays) xs.push_back(field(r));
    return median(xs);
  };
  double op_us = 0, layer_us = 0, untraced_us = 0;
  for (const Replay& r : replays) {
    op_us += r.op_us;
    layer_us += r.layer_us;
  }
  for (const double us : call_us) untraced_us += us;
  const core::FastBroadcastReport& rr = replays.front().report;
  out.add("graph.build_ms", median(build_ms));
  out.add("algo.setup_ms", med([](const Replay& r) { return r.setup_ms; }));
  out.add("core.partition_ms", med([](const Replay& r) { return r.partition_ms; }));
  out.add("congest.part_bfs_ms", med([](const Replay& r) { return r.part_bfs_ms; }));
  out.add("algo.tree_extract_ms", med([](const Replay& r) { return r.tree_ms; }));
  out.add("congest.pipeline_ms", med([](const Replay& r) { return r.pipeline_ms; }));
  out.add("congest.ns_per_msg", med([](const Replay& r) {
            return r.pipeline_ms * 1e6 /
                   static_cast<double>(std::max<std::uint64_t>(r.pipeline_messages, 1));
          }));
  out.add("congest.step_share", med([](const Replay& r) { return r.step_share; }));
  out.add("congest.delivery_share",
          med([](const Replay& r) { return r.delivery_share; }));
  out.add("congest.bookkeep_share",
          med([](const Replay& r) { return r.bookkeep_share; }));
  out.add("core.parts", rr.parts);
  out.add("core.setup_rounds", static_cast<double>(rr.setup_rounds));
  out.add("core.part_bfs_rounds", static_cast<double>(rr.part_bfs_rounds));
  out.add("core.bcast_rounds", static_cast<double>(rr.broadcast_rounds));
  out.add("core.messages", static_cast<double>(rr.messages));
  out.add("core.max_edge_congestion", static_cast<double>(rr.max_edge_congestion));
  out.add("core.retries", rr.retries);
  out.add("core.rounds_over_floor", rounds_over_floor);
  out.add("trace.coverage", layer_us / op_us);
  out.add("trace.overhead", op_us / untraced_us - 1.0);
  out.meta.emplace_back("replays", std::to_string(replays.size()));
  const std::string path = args.out_dir + "/trace-bcast-thm1-seed" +
                           std::to_string(args.seed) + ".json";
  if (!log.write(path)) out.fail("could not write " + path);
  out.meta.emplace_back("trace_file", '"' + fc::json_escape(path) + '"');
  return out;
}

}  // namespace perfbench
