// Workloads serve-warm and serve-cold: a closed loop with one client
// driving an in-process serve::Service (window 1, a benchmark-owned
// one-thread pool). Each sends its next query only after the previous answer.
// One thread, because on these n <= 4096 graphs a 2-thread pool answered
// serve-warm about 20% slower and its run-to-run latency median spread four
// times wider (README.md, baseline findings); the multi-threaded engine path
// is measured by bcast-thm1.
//
//   serve-warm  specs rmat:n=1024,deg=8 and random_regular:n=1024,d=16,
//               seeds s and s+1 (weights 1..100), algorithms bfs, sssp, mst,
//               batch-bfs (16 seed-keyed sources), payload=true, pool
//               capacity 4:
//               every measured query is a pool hit, so the time goes to
//               per-query fixed costs and payload serialization.
//   serve-cold  four rmat:n=4096,deg=8 specs (seeds s..s+3), sssp twice per bfs,
//               payload=false, pool capacity 1 over a corpus filled during
//               set-up: every query misses the pool and reloads its graph.
//
// The query stream cycles through a fixed list of distinct queries (spec,
// algorithm, seed-keyed root). Set-up computes a serial oracle for each —
// fc::bfs_distances, fc::dijkstra, fc::kruskal_msf, per-source BFS for
// batch-bfs — and answers every distinct query once with payload=true,
// checking it against the oracle and recording its cost fields. Measured
// answers are checked outside the timed interval: payloads against the
// oracle (serve-warm), cost fields against the set-up answer (both), and
// the pool hit/miss each workload promises.
//
// The traced run follows each timed Service::submit with a replay of the
// same query through the public entry points Service::run_one is built
// from — parse_json + parse_request, GraphSpec::parse, EnginePool::acquire,
// ScenarioRunner::run, serialize — on a replay pool fed the same query
// sequence, and requires the replayed line to equal the served one.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "apps/batch_sssp.hpp"
#include "common.hpp"
#include "congest/network.hpp"
#include "graph/properties.hpp"
#include "graph/weighted_graph.hpp"
#include "scenario/graph_io.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "serve/engine_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using fc::NodeId;
namespace scenario = fc::scenario;
namespace serve = fc::serve;

constexpr std::size_t kPoolThreads = 1;
constexpr std::uint64_t kBatchSources = 16;

/// The fixed shape of one serve workload. Distinct query d uses spec
/// d % S, algorithm (d / S) % A and root (d / (S * A)) % roots_per_spec,
/// so consecutive queries always change spec.
struct Shape {
  std::vector<std::string> specs;
  std::vector<std::string> algos;
  std::size_t roots_per_spec = 0;
  std::size_t pool_capacity = 0;
  bool payload = true;
  std::size_t distinct() const {
    return specs.size() * algos.size() * roots_per_spec;
  }
};

Shape shape_of(bool warm, std::uint64_t seed) {
  Shape s;
  // Each workload spans four graphs: with a single rmat graph per run, the
  // latency median moved by 14% from one seed to the next.
  if (warm) {
    for (std::uint64_t i = 0; i < 2; ++i) {
      const std::string sd = std::to_string(seed + i);
      s.specs.push_back("rmat:n=1024,deg=8,seed=" + sd + ",weights=1..100");
      s.specs.push_back("random_regular:n=1024,d=16,seed=" + sd +
                        ",weights=1..100");
    }
    s.algos = {"bfs", "sssp", "mst", "batch-bfs"};
    s.roots_per_spec = 8;
    s.pool_capacity = 4;
    s.payload = true;
  } else {
    for (std::uint64_t i = 0; i < 4; ++i)
      s.specs.push_back("rmat:n=4096,deg=8,seed=" + std::to_string(seed + i) +
                        ",weights=1..100");
    // sssp twice per bfs: with an even split the latency median would sit
    // in the gap between the cheap bfs and the dear sssp answers, and with
    // bfs in the majority in the sparse upper part of the bfs answers;
    // either way it jumped with every small shift.
    s.algos = {"bfs", "sssp", "sssp"};
    s.roots_per_spec = 16;
    s.pool_capacity = 1;
    s.payload = false;
  }
  return s;
}

/// One distinct query of the cycle, with its oracle.
struct Distinct {
  std::size_t spec = 0;
  std::string algo;
  NodeId root = 0;
  std::uint64_t qseed = 0;
  // Expected payload: sources, then per-source hop or distance arrays
  // (-1 = unreachable, the wire convention), or the MST edge pairs.
  std::vector<std::int64_t> sources;
  std::vector<std::vector<std::int64_t>> arrays;
  std::vector<std::pair<std::int64_t, std::int64_t>> mst_edges;
  // Cost fields of the first answer; later answers must repeat them.
  std::string cost;
};

std::vector<std::int64_t> wire_hops(const std::vector<std::uint32_t>& d) {
  std::vector<std::int64_t> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    out[i] = d[i] == fc::kUnreached ? -1 : std::int64_t{d[i]};
  return out;
}

std::vector<std::int64_t> wire_dist(const std::vector<fc::Weight>& d) {
  std::vector<std::int64_t> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    out[i] = d[i] >= fc::kInfWeight ? -1 : static_cast<std::int64_t>(d[i]);
  return out;
}

std::vector<Distinct> make_distinct(const Shape& shape, std::uint64_t seed,
                                    const std::vector<fc::WeightedGraph>& graphs) {
  const std::size_t S = shape.specs.size(), A = shape.algos.size();
  std::vector<std::vector<NodeId>> roots(S);
  for (std::size_t s = 0; s < S; ++s) {
    // Roots come from the largest component: an isolated rmat root answers
    // at once, and a seed-dependent share of such queries would make the
    // latency median jump between two modes from seed to seed.
    const std::vector<std::uint32_t> label = fc::components(graphs[s].graph());
    std::vector<NodeId> size(label.size(), 0);
    for (const std::uint32_t c : label) ++size[c];
    const auto giant = static_cast<std::uint32_t>(
        std::max_element(size.begin(), size.end()) - size.begin());
    std::vector<NodeId> members;
    for (NodeId v = 0; v < label.size(); ++v)
      if (label[v] == giant) members.push_back(v);
    fc::Rng rng(fc::mix64(seed, s, 0x726f6f7473ULL));
    for (std::size_t r = 0; r < shape.roots_per_spec; ++r)
      roots[s].push_back(members[rng.below(members.size())]);
  }
  std::vector<std::vector<fc::EdgeId>> msf(S);
  std::vector<Distinct> out(shape.distinct());
  for (std::size_t d = 0; d < out.size(); ++d) {
    Distinct& q = out[d];
    q.spec = d % S;
    q.algo = shape.algos[(d / S) % A];
    q.root = roots[q.spec][(d / (S * A)) % shape.roots_per_spec];
    q.qseed = fc::mix64(seed, d) % 1000000007ULL;
    const fc::WeightedGraph& wg = graphs[q.spec];
    const fc::Graph& g = wg.graph();
    if (q.algo == "bfs") {
      q.sources = {q.root};
      q.arrays.push_back(wire_hops(fc::bfs_distances(g, q.root)));
    } else if (q.algo == "sssp") {
      q.sources = {q.root};
      q.arrays.push_back(wire_dist(fc::dijkstra(wg, q.root)));
    } else if (q.algo == "batch-bfs") {
      for (const NodeId s : fc::apps::random_sources(g, kBatchSources, q.qseed)) {
        q.sources.push_back(s);
        q.arrays.push_back(wire_hops(fc::bfs_distances(g, s)));
      }
    } else {  // mst: the served forest is the root component's MST
      q.sources = {q.root};
      if (msf[q.spec].empty()) msf[q.spec] = fc::kruskal_msf(wg);
      const auto reach = fc::bfs_distances(g, q.root);
      for (const fc::EdgeId e : msf[q.spec]) {
        const NodeId u = g.edge_u(e), v = g.edge_v(e);
        if (reach[u] != fc::kUnreached)
          q.mst_edges.emplace_back(std::min(u, v), std::max(u, v));
      }
      std::sort(q.mst_edges.begin(), q.mst_edges.end());
    }
  }
  return out;
}

std::string query_line(const Shape& shape, const Distinct& q, std::uint64_t id,
                       bool payload) {
  fc::JsonWriter w;
  w.begin_object()
      .field("id", id)
      .field("spec", shape.specs[q.spec])
      .field("algo", q.algo)
      .field("root", std::uint64_t{q.root})
      .field("payload", payload);
  if (q.algo == "batch-bfs")
    w.field("sources", kBatchSources)
        .field("source_mode", "random")
        .field("seed", q.qseed);
  return w.end_object().take();
}

bool same_array(const fc::JsonValue* got, const std::vector<std::int64_t>& want) {
  if (got == nullptr || !got->is_array() || got->items.size() != want.size())
    return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (got->items[i].number != static_cast<double>(want[i])) return false;
  return true;
}

/// Checks one answer line; returns "" when it is right.
/// `expect_hit`: nullopt = either (set-up), else the pool outcome promised.
std::string check_answer(const std::string& line, Distinct& q, bool payload,
                         std::optional<bool> expect_hit) {
  fc::JsonValue v;
  try {
    v = fc::parse_json(line);
  } catch (const std::exception& err) {
    return std::string("unparseable answer: ") + err.what();
  }
  if (!v.flag("ok")) return "error answer: " + line.substr(0, 200);
  if (!v.flag("finished")) return "unfinished run: " + line.substr(0, 200);
  std::string cost;
  for (const char* f : {"nodes", "edges", "rounds", "messages",
                        "max_arc_congestion", "max_edge_congestion", "arc_p50",
                        "arc_p99"})
    cost += std::to_string(static_cast<std::uint64_t>(v.num(f, -1))) + ' ';
  cost += v.str("note");
  if (q.cost.empty()) {
    q.cost = cost;
  } else if (cost != q.cost) {
    return q.algo + " cost fields changed: '" + cost + "' vs '" + q.cost + "'";
  }
  if (expect_hit && v.flag("cache_hit") != *expect_hit)
    return std::string("expected a pool ") + (*expect_hit ? "hit" : "miss");
  if (!payload) return "";

  if (!same_array(v.find("sources"), q.sources))
    return q.algo + " sources differ from the request";
  if (q.algo == "mst") {
    // Compared as a set: the served list is in the forest's edge-id order,
    // not the (u, v) order ScenarioPayload's comment promises.
    std::vector<std::pair<std::int64_t, std::int64_t>> got;
    if (const fc::JsonValue* edges = v.find("mst_edges"))
      for (const fc::JsonValue& e : edges->items) {
        if (e.items.size() != 2) return "mst edge is not a [u, v] pair";
        got.emplace_back(static_cast<std::int64_t>(e.items[0].number),
                         static_cast<std::int64_t>(e.items[1].number));
      }
    std::sort(got.begin(), got.end());
    if (got != q.mst_edges)
      return "mst forest (" + std::to_string(got.size()) +
             " edges) differs from Kruskal's (" +
             std::to_string(q.mst_edges.size()) + " edges)";
    return "";
  }
  const fc::JsonValue* arrays =
      v.find(q.algo == "sssp" ? "distances" : "hops");
  if (arrays == nullptr || arrays->items.size() != q.arrays.size())
    return q.algo + " payload has the wrong number of vectors";
  for (std::size_t i = 0; i < q.arrays.size(); ++i)
    if (!same_array(&arrays->items[i], q.arrays[i]))
      return q.algo + " vector " + std::to_string(i) +
             " differs from the serial oracle";
  return "";
}

/// Per-op layer timings of one replayed query.
struct ReplayOp {
  std::string algo;
  double json_us = 0, parse_us = 0, spec_us = 0, acquire_us = 0, run_us = 0,
         serialize_us = 0, op_us = 0, answer_kb = 0;
  bool hit = false, reused = false;
  std::optional<double> corpus_us, corpus_mb_per_s, network_us;
};

/// The serve path replayed from outside: the calls Service::run_one makes,
/// on its own pool and runner.
class Replayer {
 public:
  Replayer(const Shape& shape, std::string cache_dir, fc::ThreadPool& threads)
      : pool_(shape.pool_capacity, cache_dir),
        cache_dir_(std::move(cache_dir)),
        threads_(threads) {}

  std::string run(const std::string& line, SpanLog& log, std::uint64_t op,
                  ReplayOp& t) {
    const std::int64_t root = log.begin("serve.replay", op);
    std::int64_t s = log.begin("serve.parse", op, root);
    const std::int64_t j = log.begin("util.json_parse", op, s);
    const fc::JsonValue parsed = fc::parse_json(line);
    t.json_us = log.end(j);
    serve::Request req;
    serve::ErrorCode code = serve::ErrorCode::kNone;
    std::string message;
    if (!serve::parse_request(parsed, &req, &code, &message))
      throw std::runtime_error("replay: bad request: " + message);
    t.parse_us = log.end(s);
    serve::Query& q = req.query;

    s = log.begin("scenario.spec_parse", op, root);
    if (!runner_.has(q.algo)) throw std::runtime_error("replay: unknown algo");
    const scenario::GraphSpec spec = scenario::GraphSpec::parse(q.spec);
    (void)serve::EnginePool::pool_key(spec);  // Service::submit pays it too
    scenario::ScenarioConfig cfg = scenario::apply_spec_config(q.cfg, spec);
    t.spec_us = log.end(s);

    s = log.begin("serve.acquire", op, root);
    bool hit = false;
    serve::EnginePool::Entry& entry = pool_.acquire(spec, &hit);
    t.acquire_us = log.end(s);

    t.algo = q.algo;
    s = log.begin("scenario.run." + q.algo, op, root);
    cfg.pool = &threads_;
    cfg.network = entry.network.get();
    scenario::ScenarioPayload payload;
    if (q.want_payload) cfg.payload = &payload;
    const std::uint64_t runs_before = entry.network->runs_started();
    serve::Response resp;
    resp.result = entry.is_weighted()
                      ? runner_.run(q.algo, entry.weighted_graph(), entry.key, cfg)
                      : runner_.run(q.algo, entry.graph(), entry.key, cfg);
    t.run_us = log.end(s);

    s = log.begin("serve.serialize", op, root);
    resp.id = q.id;
    resp.ok = true;
    resp.cache_hit = hit;
    resp.engine_reused = hit && entry.network->runs_started() > runs_before;
    if (q.want_payload) {
      resp.has_payload = true;
      resp.payload = std::move(payload);
    }
    std::string out = serve::serialize(resp);
    t.serialize_us = log.end(s);
    t.op_us = log.end(root);
    t.hit = hit;
    t.reused = resp.engine_reused;

    // A pool miss loaded a corpus file and built a Network inside
    // acquire(); probe those two steps on their own, outside the op.
    if (!hit && !cache_dir_.empty()) {
      s = log.begin("scenario.corpus_load", op);
      bool from_corpus = false;
      const fc::WeightedGraph wg =
          scenario::load_or_generate_weighted(spec, cache_dir_, &from_corpus);
      t.corpus_us = log.end(s);
      if (!from_corpus) throw std::runtime_error("replay: corpus file missing");
      const auto bytes = std::filesystem::file_size(
          std::filesystem::path(cache_dir_) / scenario::cache_file_name(spec));
      t.corpus_mb_per_s = static_cast<double>(bytes) / *t.corpus_us;
      s = log.begin("congest.network_build", op);
      const fc::congest::Network net(wg.graph());
      t.network_us = log.end(s);
    }
    return out;
  }

 private:
  serve::EnginePool pool_;
  scenario::ScenarioRunner runner_;
  std::string cache_dir_;
  fc::ThreadPool& threads_;
};

}  // namespace

WorkloadResult run_serve(const Args& args, bool warm) {
  WorkloadResult out;
  const std::string name = warm ? "serve-warm" : "serve-cold";
  const Shape shape = shape_of(warm, args.seed);
  fc::ThreadPool threads(kPoolThreads);
  const std::string corpus =
      warm ? "" : args.out_dir + "/corpus-seed" + std::to_string(args.seed);

  auto check = [&](const std::vector<std::string>& answers, Distinct& q,
                   bool payload, std::optional<bool> expect_hit) {
    ++out.attempted;
    if (answers.size() != 1) {
      out.fail(std::to_string(answers.size()) + " answers to one query");
      return;
    }
    const std::string bad = check_answer(answers[0], q, payload, expect_hit);
    if (!bad.empty()) out.fail(name + ": " + bad);
  };

  // Set-up, kSetupRepeats times: build the graphs (and, for serve-cold,
  // fill a fresh corpus), compute the oracles, start a Service and answer
  // every distinct query once with payload=true (which also warms the
  // pool). The last repetition's state is the one measured.
  std::vector<double> setup_s, build_ms;
  std::vector<Distinct> distinct;
  std::unique_ptr<serve::Service> service;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::vector<fc::WeightedGraph> graphs;
    for (const std::string& spec : shape.specs) {
      const Clock::time_point b0 = Clock::now();
      graphs.push_back(scenario::Registry::instance().build_weighted(spec));
      build_ms.push_back(static_cast<double>(ns_between(b0, Clock::now())) * 1e-6);
    }
    if (!warm) {
      std::filesystem::remove_all(corpus);
      for (const std::string& spec : shape.specs)
        scenario::load_or_generate(scenario::GraphSpec::parse(spec), corpus);
    }
    std::vector<Distinct> fresh = make_distinct(shape, args.seed, graphs);
    if (!distinct.empty())  // repeats must agree with the first set-up
      for (std::size_t d = 0; d < fresh.size(); ++d)
        fresh[d].cost = distinct[d].cost;
    distinct = std::move(fresh);
    serve::ServiceOptions sopts;
    sopts.cache_dir = corpus;
    sopts.pool_capacity = shape.pool_capacity;
    sopts.window = 1;
    sopts.pool = &threads;
    service = std::make_unique<serve::Service>(sopts);
    for (std::size_t d = 0; d < distinct.size(); ++d)
      check(service->submit(query_line(shape, distinct[d], d, true)),
            distinct[d], true, std::nullopt);
    setup_s.push_back(seconds_since(t0));
  }

  std::optional<Replayer> replayer;
  SpanLog log;
  if (args.trace) {
    // Feed the replay pool the set-up sequence so its LRU state matches
    // the service's.
    replayer.emplace(shape, corpus, threads);
    SpanLog priming;
    ReplayOp ignored;
    for (std::size_t d = 0; d < distinct.size(); ++d)
      replayer->run(query_line(shape, distinct[d], d, true), priming, d, ignored);
  }

  // The closed loop. Only Service::submit is inside the timed interval.
  std::vector<double> lat_us;
  std::vector<ReplayOp> ops;
  const std::optional<bool> expect_hit = warm;
  const Clock::time_point start = Clock::now();
  std::uint64_t i = 0;
  do {
    Distinct& q = distinct[i % distinct.size()];
    const std::string line = query_line(shape, q, i, shape.payload);
    // A traced run replays every query too; the replay goes first on odd
    // queries so that neither side always finds the other's data in cache.
    ReplayOp t;
    std::string replayed;
    if (args.trace && i % 2 == 1) replayed = replayer->run(line, log, i, t);
    const Clock::time_point t0 = Clock::now();
    const std::vector<std::string> answers = service->submit(line);
    lat_us.push_back(static_cast<double>(ns_between(t0, Clock::now())) * 1e-3);
    if (args.trace && i % 2 == 0) replayed = replayer->run(line, log, i, t);
    check(answers, q, shape.payload, expect_hit);
    if (args.trace) {
      if (answers.size() != 1 || replayed != answers[0])
        out.fail(name + ": replayed answer differs from Service::submit for " +
                 line);
      t.answer_kb = static_cast<double>(replayed.size()) / 1024.0;
      ops.push_back(std::move(t));
    }
    ++i;
  } while (seconds_since(start) < args.seconds);
  if (!warm) std::filesystem::remove_all(corpus);

  double submit_us = 0;
  for (const double us : lat_us) submit_us += us;
  const double qps = static_cast<double>(lat_us.size()) / (submit_us * 1e-6);
  const Tail tail = tail_of(lat_us);

  fc::JsonWriter specs;
  specs.begin_array();
  for (const std::string& spec : shape.specs)
    specs.value(serve::EnginePool::pool_key(scenario::GraphSpec::parse(spec)));
  specs.end_array();
  out.meta = {{"pool_threads", std::to_string(kPoolThreads)},
              {"specs", specs.str()},
              {"loop", "\"closed, 1 client, window 1\""},
              {"pool_capacity", std::to_string(shape.pool_capacity)},
              {"payload", shape.payload ? "true" : "false"},
              {"distinct_queries", std::to_string(distinct.size())},
              {"setup_repeats", std::to_string(kSetupRepeats)},
              {"op_samples", std::to_string(lat_us.size())},
              {"op_tail_quantile", fmt("%.2f", tail.q)}};

  const double ratio = static_cast<double>(out.failed) /
                       static_cast<double>(std::max<std::uint64_t>(out.attempted, 1));
  out.report.push_back("workload " + name + "  seed " + std::to_string(args.seed) +
                       "  " + std::to_string(shape.specs.size()) + " specs, " +
                       std::to_string(distinct.size()) +
                       " distinct queries, closed loop, 1 client, threads " +
                       std::to_string(kPoolThreads));
  out.report.push_back("  setup_s        " + fmt("%.4f", median(setup_s)) +
                       " s (median of " + std::to_string(kSetupRepeats) + ")");
  out.report.push_back("  fail_ratio     " + fmt("%.4f", ratio) + " (" +
                       std::to_string(out.failed) + "/" +
                       std::to_string(out.attempted) + " answers checked)");
  out.report.push_back("  query_p50_us   " + fmt("%.1f", median(lat_us)) +
                       " us (" + std::to_string(lat_us.size()) + " queries)");
  out.report.push_back("  query_p90_us   " + fmt("%.1f", tail.value) + " us");
  out.report.push_back("  query_p99_us   " + fmt("%.1f", quantile(lat_us, 0.99)) +
                       " us (" +
                       std::to_string(lat_us.size() / 100) +
                       " samples beyond)");
  out.report.push_back("  qps            " + fmt("%.1f", qps) +
                       " 1/s (queries / time inside submit)");

  if (!args.trace) {
    out.add("setup_s", median(setup_s));
    out.add("peak_rss_mb", peak_rss_mb());
    out.add("op_p50_us", median(lat_us));
    out.add("op_tail_us", tail.value);
    out.add("ops_per_s", qps);
    out.report.push_back("  peak_rss_mb    " + fmt("%.1f", peak_rss_mb()) + " MB");
    return out;
  }

  auto med = [&](auto field) {
    std::vector<double> xs;
    for (const ReplayOp& t : ops)
      if (const std::optional<double> x = field(t)) xs.push_back(*x);
    return median(xs);
  };
  using Opt = std::optional<double>;
  double op_us = 0, layer_us = 0;
  std::uint64_t hits = 0, reused = 0;
  std::vector<double> overhead;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const ReplayOp& t = ops[k];
    const double layers =
        t.parse_us + t.spec_us + t.acquire_us + t.run_us + t.serialize_us;
    op_us += t.op_us;
    layer_us += layers;
    overhead.push_back(lat_us[k] - layers);
    hits += t.hit;
    reused += t.reused;
  }
  out.add("graph.build_ms", median(build_ms));
  out.add("util.json_parse_us", med([](const ReplayOp& t) -> Opt { return t.json_us; }));
  out.add("serve.parse_us", med([](const ReplayOp& t) -> Opt { return t.parse_us; }));
  out.add("scenario.spec_parse_us", med([](const ReplayOp& t) -> Opt { return t.spec_us; }));
  out.add("serve.acquire_us", med([](const ReplayOp& t) -> Opt { return t.acquire_us; }));
  out.add("serve.pool_hit_ratio",
          static_cast<double>(hits) / static_cast<double>(ops.size()));
  out.add("scenario.corpus_load_us", med([](const ReplayOp& t) { return t.corpus_us; }));
  out.add("scenario.corpus_mb_per_s",
          med([](const ReplayOp& t) { return t.corpus_mb_per_s; }));
  out.add("congest.network_build_us", med([](const ReplayOp& t) { return t.network_us; }));
  out.add("serve.engine_reused_ratio",
          static_cast<double>(reused) / static_cast<double>(ops.size()));
  for (const std::string& algo : shape.algos)
    out.add("scenario.run_us." + algo, med([&](const ReplayOp& t) -> Opt {
              return t.algo == algo ? Opt(t.run_us) : std::nullopt;
            }));
  out.add("serve.serialize_us", med([](const ReplayOp& t) -> Opt { return t.serialize_us; }));
  out.add("serve.response_kb", med([](const ReplayOp& t) -> Opt { return t.answer_kb; }));
  out.add("serve.service_overhead_us", median(overhead));
  out.add("trace.coverage", layer_us / op_us);
  out.add("trace.overhead", op_us / submit_us - 1.0);
  out.meta.emplace_back("replays", std::to_string(ops.size()));
  const std::string path = args.out_dir + "/trace-" + name + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (!log.write(path)) out.fail("could not write " + path);
  out.meta.emplace_back("trace_file", '"' + fc::json_escape(path) + '"');
  return out;
}

}  // namespace perfbench
