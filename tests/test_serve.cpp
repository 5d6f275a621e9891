// Protocol contract of the scenario serving daemon, driven through the
// transport-free serve::Service — the exact object scenario_serve wires to
// a pipe or socket:
//
//  * Differential: every registered algorithm served through the daemon
//    (window=1) reports BIT-IDENTICAL cost measures to a direct
//    ScenarioRunner::run_spec on the registry differential grid, at engine
//    pool sizes 1, 2, and 8, warm and cold.
//  * Warm pool: the second query for a graph is a cache hit that reuses
//    the pooled Network (no rebuild, no re-allocation) and answers
//    identically; capacity-1 pools evict least-recently-used.
//  * Coalescing: same-graph bfs/sssp queries flushed in one window share
//    ONE batch execution whose per-query payloads are bit-identical to
//    the individual runs.
//  * Malformed input: every broken line yields a typed error response and
//    the service keeps answering the next valid query — no state leaks.
//  * Random source placement: seed-keyed, prefix-stable, spec-driven, and
//    pinned by a golden vector so the wire behavior cannot drift.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "apps/batch_sssp.hpp"
#include "dynamic/scenario.hpp"
#include "scenario/runner.hpp"
#include "serve/engine_pool.hpp"
#include "scenario/spec.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace fc::serve {
namespace {

/// The registry differential grid shared with the engine/MST/SSSP suites.
const char* const kSpecs[] = {
    "random_regular:n=96,d=6,seed=3,weights=1..100",
    "harary:n=64,k=5,weights=1..50",
    "watts_strogatz:n=96,k=6,p=0.2,seed=5,weights=1..40",
    "dumbbell:s=24,bridges=3,weights=1..9",
    "rmat:n=128,deg=6,seed=7,largest_cc=1,weights=1..100",
    "thick_cycle:groups=8,width=4",
};

const std::size_t kThreads[] = {1, 2, 8};

/// A spec with no weights/sources params, for the unweighted-entry tests.
const char* const kPlainSpec = "thick_cycle:groups=8,width=4";

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string query_line(const std::string& spec, const std::string& algo,
                       const std::string& extra = "") {
  return "{\"spec\": " + quoted(spec) + ", \"algo\": " + quoted(algo) +
         (extra.empty() ? "" : ", " + extra) + "}";
}

/// Submit one line to a window=1 service and parse the single response.
JsonValue submit_one(Service& service, const std::string& line) {
  const std::vector<std::string> out = service.submit(line);
  EXPECT_EQ(out.size(), 1u) << line;
  return parse_json(out.empty() ? "{}" : out.front());
}

/// The served response must carry the exact cost measures the direct
/// runner reported (the display name differs: the pool keys by the
/// canonical spec with the query-placement params stripped).
void expect_matches(const JsonValue& resp,
                    const scenario::ScenarioResult& want) {
  EXPECT_TRUE(resp.flag("ok")) << resp.str("message", "");
  EXPECT_EQ(resp.str("algo", ""), want.algo);
  EXPECT_EQ(resp.num("nodes"), want.nodes);
  EXPECT_EQ(resp.num("edges"), want.edges);
  EXPECT_EQ(resp.num("rounds"), want.rounds);
  EXPECT_EQ(resp.num("messages"), want.messages);
  EXPECT_EQ(resp.num("max_arc_congestion"), want.max_arc_congestion);
  EXPECT_EQ(resp.num("max_edge_congestion"), want.max_edge_congestion);
  EXPECT_EQ(resp.num("arc_p50"), want.arc_p50);
  EXPECT_EQ(resp.num("arc_p99"), want.arc_p99);
  EXPECT_EQ(resp.flag("finished"), want.finished);
  EXPECT_EQ(resp.str("note", ""), want.note);
}

TEST(ServeDifferential, EveryAlgorithmMatchesScenarioRunnerOnGrid) {
  scenario::ScenarioRunner runner;
  std::vector<std::string> algos = runner.algorithms();
  for (const std::string& a : runner.weighted_algorithms())
    algos.push_back(a);
  ASSERT_GE(algos.size(), 9u);

  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    for (const std::string& algo : algos) {
      SCOPED_TRACE(algo);
      const bool batch = algo.rfind("batch", 0) == 0;
      scenario::ScenarioConfig cfg;
      if (batch) cfg.sources = 3;
      const scenario::ScenarioResult want =
          runner.run_spec(algo, spec, cfg);
      const std::string line =
          query_line(spec, algo, batch ? "\"sources\": 3" : "");
      for (const std::size_t threads : kThreads) {
        SCOPED_TRACE(threads);
        ThreadPool tp(threads);
        ServiceOptions sopts;
        sopts.pool = &tp;
        Service service(std::move(sopts));
        const JsonValue cold = submit_one(service, line);
        expect_matches(cold, want);
        EXPECT_FALSE(cold.flag("cache_hit"));
        const JsonValue warm = submit_one(service, line);
        expect_matches(warm, want);
        EXPECT_TRUE(warm.flag("cache_hit"));
      }
    }
  }
}

TEST(ServePool, WarmHitReusesGraphAndEngine) {
  Service service(ServiceOptions{});
  const std::string line = query_line(kPlainSpec, "bfs", "\"root\": 3");

  const JsonValue cold = submit_one(service, line);
  EXPECT_TRUE(cold.flag("ok"));
  EXPECT_FALSE(cold.flag("cache_hit"));
  EXPECT_FALSE(cold.flag("engine_reused"));

  const JsonValue warm = submit_one(service, line);
  EXPECT_TRUE(warm.flag("ok"));
  EXPECT_TRUE(warm.flag("cache_hit"));
  // bfs runs on the pooled graph itself, so the warm query reuses the
  // pooled Network: the engine ran again without being rebuilt.
  EXPECT_TRUE(warm.flag("engine_reused"));

  const PoolStats& ps = service.pool_stats();
  EXPECT_EQ(ps.graph_builds, 1u);
  EXPECT_EQ(ps.misses, 1u);
  EXPECT_EQ(ps.hits, 1u);
  EXPECT_EQ(ps.evictions, 0u);
  EXPECT_EQ(service.engine_pool().size(), 1u);

  // Warm == cold on every cost measure (Network::run resets per-run state).
  for (const char* key : {"rounds", "messages", "max_arc_congestion",
                          "max_edge_congestion", "arc_p50", "arc_p99"})
    EXPECT_EQ(warm.num(key), cold.num(key)) << key;
  EXPECT_EQ(warm.str("note", ""), cold.str("note", ""));
}

TEST(ServePool, CapacityOneEvictsLeastRecentlyUsed) {
  ServiceOptions sopts;
  sopts.pool_capacity = 1;
  Service service(std::move(sopts));
  const std::string a = query_line(kPlainSpec, "bfs");
  const std::string b = query_line("harary:n=64,k=5", "bfs");

  EXPECT_FALSE(submit_one(service, a).flag("cache_hit"));
  EXPECT_FALSE(submit_one(service, b).flag("cache_hit"));  // evicts A
  EXPECT_FALSE(submit_one(service, a).flag("cache_hit"));  // evicts B
  EXPECT_TRUE(submit_one(service, a).flag("cache_hit"));

  const PoolStats& ps = service.pool_stats();
  EXPECT_EQ(ps.graph_builds, 3u);
  EXPECT_EQ(ps.evictions, 2u);
  EXPECT_EQ(ps.hits, 1u);
  EXPECT_EQ(service.engine_pool().size(), 1u);
}

/// Extract response.distances[0] / response.hops[0] as raw JSON numbers
/// (-1 = unreachable); the differential only needs exact equality.
std::vector<double> payload_row(const JsonValue& resp, const char* key) {
  const JsonValue* rows = resp.find(key);
  if (rows == nullptr || rows->items.empty()) return {};
  std::vector<double> out;
  for (const JsonValue& v : rows->items.front().items)
    out.push_back(v.number);
  return out;
}

TEST(ServeCoalesce, WindowedSsspMatchesIndividualRuns) {
  const char* spec = kSpecs[0];  // weighted: sssp coalesces
  const NodeId roots[] = {0, 5, 9};

  Service solo(ServiceOptions{});
  std::vector<JsonValue> individual;
  for (const NodeId r : roots)
    individual.push_back(submit_one(
        solo, query_line(spec, "sssp",
                         "\"root\": " + std::to_string(r) +
                             ", \"payload\": true")));

  ServiceOptions sopts;
  sopts.window = 3;
  Service batched(std::move(sopts));
  EXPECT_TRUE(batched.submit(query_line(spec, "sssp",
                                        "\"root\": 0, \"payload\": true"))
                  .empty());
  EXPECT_TRUE(batched.submit(query_line(spec, "sssp",
                                        "\"root\": 5, \"payload\": true"))
                  .empty());
  const std::vector<std::string> out = batched.submit(
      query_line(spec, "sssp", "\"root\": 9, \"payload\": true"));
  ASSERT_EQ(out.size(), 3u);

  for (std::size_t i = 0; i < out.size(); ++i) {
    SCOPED_TRACE(i);
    const JsonValue got = parse_json(out[i]);
    EXPECT_TRUE(got.flag("ok"));
    EXPECT_EQ(got.num("coalesced"), 3);
    // The typed answer is bit-identical to the individual run; the cost
    // measures are the ONE batch execution's, shared by the window.
    EXPECT_EQ(payload_row(got, "distances"),
              payload_row(individual[i], "distances"));
    EXPECT_EQ(got.find("sources")->items.front().number, roots[i]);
  }
  EXPECT_EQ(batched.stats().coalesced_runs, 1u);
  EXPECT_EQ(batched.stats().coalesced_queries, 3u);
  EXPECT_EQ(batched.stats().flushes, 1u);
  // One warm graph served the whole window.
  EXPECT_EQ(batched.pool_stats().graph_builds, 1u);
}

TEST(ServeCoalesce, WindowedBfsMatchesIndividualRuns) {
  const NodeId roots[] = {2, 17};
  Service solo(ServiceOptions{});
  std::vector<JsonValue> individual;
  for (const NodeId r : roots)
    individual.push_back(submit_one(
        solo, query_line(kPlainSpec, "bfs",
                         "\"root\": " + std::to_string(r) +
                             ", \"payload\": true")));

  ServiceOptions sopts;
  sopts.window = 2;
  Service batched(std::move(sopts));
  batched.submit(query_line(kPlainSpec, "bfs",
                            "\"root\": 2, \"payload\": true"));
  const std::vector<std::string> out = batched.submit(
      query_line(kPlainSpec, "bfs", "\"root\": 17, \"payload\": true"));
  ASSERT_EQ(out.size(), 2u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    SCOPED_TRACE(i);
    const JsonValue got = parse_json(out[i]);
    EXPECT_TRUE(got.flag("ok"));
    EXPECT_EQ(got.num("coalesced"), 2);
    EXPECT_EQ(payload_row(got, "hops"),
              payload_row(individual[i], "hops"));
  }
}

TEST(ServeCoalesce, InvalidRootErrorsIndividuallyInsideWindow) {
  ServiceOptions sopts;
  sopts.window = 3;
  Service service(std::move(sopts));
  service.submit(query_line(kPlainSpec, "bfs", "\"id\": 1, \"root\": 0"));
  service.submit(
      query_line(kPlainSpec, "bfs", "\"id\": 2, \"root\": 4096"));
  const std::vector<std::string> out = service.submit(
      query_line(kPlainSpec, "bfs", "\"id\": 3, \"root\": 1"));
  ASSERT_EQ(out.size(), 3u);
  const JsonValue bad = parse_json(out[1]);
  EXPECT_FALSE(bad.flag("ok"));
  EXPECT_EQ(bad.str("error", ""), "bad-source");
  EXPECT_EQ(bad.num("id"), 2);
  // The survivors still coalesce with each other.
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const JsonValue good = parse_json(out[i]);
    EXPECT_TRUE(good.flag("ok"));
    EXPECT_EQ(good.num("coalesced"), 2);
  }
}

TEST(ServeControl, FlushStatsAndShutdown) {
  ServiceOptions sopts;
  sopts.window = 8;
  Service service(std::move(sopts));
  EXPECT_TRUE(service.submit(query_line(kPlainSpec, "bfs")).empty());

  const JsonValue stats =
      submit_one(service, "{\"cmd\": \"stats\", \"id\": 9}");
  EXPECT_TRUE(stats.flag("ok"));
  EXPECT_EQ(stats.num("id"), 9);
  EXPECT_EQ(stats.find("stats")->num("pending"), 1);

  const std::vector<std::string> flushed =
      service.submit("{\"cmd\": \"flush\"}");
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_TRUE(parse_json(flushed.front()).flag("ok"));
  EXPECT_FALSE(service.shutdown_requested());

  EXPECT_TRUE(service.submit(query_line(kPlainSpec, "bfs")).empty());
  const std::vector<std::string> last =
      service.submit("{\"cmd\": \"shutdown\", \"id\": 10}");
  ASSERT_EQ(last.size(), 2u);  // the flushed query, then the ack
  EXPECT_TRUE(parse_json(last[0]).flag("ok"));
  const JsonValue ack = parse_json(last[1]);
  EXPECT_EQ(ack.num("id"), 10);
  EXPECT_EQ(ack.str("cmd", ""), "shutdown");
  EXPECT_TRUE(service.shutdown_requested());
}

struct BadLine {
  const char* line;
  const char* code;
  std::uint64_t id;  // the id the error response must echo (0 = none sent)
};

TEST(ServeErrors, EveryMalformedLineGetsTypedErrorAndServiceKeepsServing) {
  const BadLine cases[] = {
      // not JSON at all / truncated mid-object
      {"nonsense", "parse", 0},
      {"{\"spec\": \"thick_cycle:groups=8,width=4\"", "parse", 0},
      {"", "parse", 0},
      // valid JSON, wrong shape
      {"[1, 2, 3]", "bad-request", 0},
      {"{\"id\": 4, \"algo\": \"bfs\"}", "bad-request", 4},  // no spec
      {"{\"id\": 5, \"spec\": \"thick_cycle:groups=8,width=4\"}",
       "bad-request", 5},  // no algo
      {"{\"id\": 6, \"spec\": \"x\", \"algo\": \"bfs\", \"bogus\": 1}",
       "bad-request", 6},
      {"{\"id\": 7, \"spec\": \"x\", \"algo\": \"bfs\", \"root\": -3}",
       "bad-request", 7},
      {"{\"id\": 8, \"spec\": \"x\", \"algo\": \"bfs\", \"root\": 1.5}",
       "bad-request", 8},
      {"{\"id\": 9, \"spec\": \"x\", \"algo\": \"bfs\", "
       "\"engine\": \"warp\"}",
       "bad-request", 9},
      {"{\"id\": 10, \"spec\": \"x\", \"algo\": \"bfs\", "
       "\"source_mode\": \"slapdash\"}",
       "bad-request", 10},
      {"{\"id\": 11, \"spec\": \"x\", \"algo\": \"bfs\", \"payload\": 1}",
       "bad-request", 11},
      {"{\"id\": 12, \"cmd\": \"reboot\"}", "bad-request", 12},
      {"{\"id\": 13, \"cmd\": \"flush\", \"spec\": \"x\"}", "bad-request",
       13},
      // shape fine, content resolvable only against the registry/graph
      {"{\"id\": 14, \"spec\": \"thick_cycle:groups=8,width=4\", "
       "\"algo\": \"quantum-walk\"}",
       "unknown-algo", 14},
      {"{\"id\": 15, \"spec\": \"mobius:n=9\", \"algo\": \"bfs\"}",
       "bad-spec", 15},
      {"{\"id\": 16, \"spec\": \"thick_cycle:groups=8\", \"algo\": "
       "\"bfs\"}",
       "bad-spec", 16},  // missing required family param
      {"{\"id\": 17, \"spec\": \"thick_cycle:groups=8,width=4,"
       "sources=abc\", \"algo\": \"batch-bfs\"}",
       "bad-spec", 17},
      {"{\"id\": 18, \"spec\": \"thick_cycle:groups=8,width=4\", "
       "\"algo\": \"bfs\", \"root\": 4096}",
       "bad-source", 18},
      {"{\"id\": 19, \"spec\": \"thick_cycle:groups=8,width=4\", "
       "\"algo\": \"batch-bfs\", \"sources\": 4096}",
       "bad-source", 19},
  };

  Service service(ServiceOptions{});
  const std::string valid = query_line(kPlainSpec, "bfs");
  std::uint64_t errors = 0;
  for (const BadLine& c : cases) {
    SCOPED_TRACE(c.line);
    const JsonValue resp = submit_one(service, c.line);
    EXPECT_FALSE(resp.flag("ok"));
    EXPECT_EQ(resp.str("error", ""), c.code);
    EXPECT_EQ(resp.num("id"), c.id);
    EXPECT_FALSE(resp.str("message", "").empty());
    ++errors;
    // The daemon-never-dies contract: the next valid query still answers.
    EXPECT_TRUE(submit_one(service, valid).flag("ok"));
  }
  EXPECT_EQ(service.stats().errors, errors);
  EXPECT_FALSE(service.shutdown_requested());
}

TEST(ServeErrors, OversizedLineIsRejectedBeforeParsing) {
  ServiceOptions sopts;
  sopts.max_request_bytes = 128;
  Service service(std::move(sopts));
  std::string big = "{\"spec\": \"";
  big.append(256, 'x');
  big += "\", \"algo\": \"bfs\"}";
  const JsonValue resp = submit_one(service, big);
  EXPECT_FALSE(resp.flag("ok"));
  EXPECT_EQ(resp.str("error", ""), "oversized");
  EXPECT_TRUE(submit_one(service, query_line(kPlainSpec, "bfs")).flag("ok"));
}

TEST(RandomSources, SeedStablePrefixStableAndDistinct) {
  const Graph g = scenario::build_graph(kPlainSpec);  // n = 32
  const auto a = apps::random_sources(g, 5, 42);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a, apps::random_sources(g, 5, 42));
  EXPECT_NE(a, apps::random_sources(g, 5, 43));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LT(a[i], g.node_count());
    for (std::size_t j = i + 1; j < a.size(); ++j) EXPECT_NE(a[i], a[j]);
  }
  // Prefix stability: asking for fewer sources never reshuffles placement.
  const auto p = apps::random_sources(g, 3, 42);
  EXPECT_EQ(p, std::vector<NodeId>(a.begin(), a.begin() + 3));
  // Golden vector: the seed-keyed placement is a wire-visible contract
  // (served payloads echo it), so drift must fail loudly.
  EXPECT_EQ(a, (std::vector<NodeId>{14, 16, 2, 19, 15}));
}

TEST(RandomSources, SpecSourceModeDrivesBatchPlacement) {
  scenario::ScenarioRunner runner;
  const std::string spec =
      "thick_cycle:groups=8,width=4,sources=4,source_mode=random";
  const Graph g = scenario::build_graph(kPlainSpec);

  scenario::ScenarioConfig cfg;
  cfg.seed = 7;
  scenario::ScenarioPayload pay;
  cfg.payload = &pay;
  runner.run_spec("batch-bfs", spec, cfg);
  EXPECT_EQ(pay.sources, apps::random_sources(g, 4, 7));

  // Caller precedence: an explicit mode beats the spec's.
  cfg.source_mode = scenario::SourceMode::kFirst;
  runner.run_spec("batch-bfs", spec, cfg);
  EXPECT_EQ(pay.sources, apps::default_sources(g, 4));
}

TEST(RandomSources, ServedPayloadEchoesRandomPlacement) {
  Service service(ServiceOptions{});
  const JsonValue resp = submit_one(
      service, query_line(kPlainSpec, "batch-bfs",
                          "\"sources\": 4, \"source_mode\": \"random\", "
                          "\"seed\": 7, \"payload\": true"));
  ASSERT_TRUE(resp.flag("ok"));
  const Graph g = scenario::build_graph(kPlainSpec);
  const auto want = apps::random_sources(g, 4, 7);
  const JsonValue* got = resp.find("sources");
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->items.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got->items[i].number, want[i]);
}

TEST(ServePayload, MstEdgesAreSortedCanonicalPairs) {
  // ScenarioPayload promises canonical (u, v) pairs with u < v, sorted.
  // rmat's edge ids do not follow endpoint order, so serving the forest in
  // edge-id order would break the promise on this spec.
  Service service(ServiceOptions{});
  const JsonValue resp = submit_one(
      service, query_line("rmat:n=256,deg=4,seed=3,weights=1..100", "mst",
                          "\"payload\": true"));
  ASSERT_TRUE(resp.flag("ok")) << resp.str("message", "");
  const JsonValue* edges = resp.find("mst_edges");
  ASSERT_NE(edges, nullptr);
  std::vector<std::pair<double, double>> got;
  for (const JsonValue& e : edges->items) {
    ASSERT_EQ(e.items.size(), 2u);
    EXPECT_LT(e.items[0].number, e.items[1].number);
    got.emplace_back(e.items[0].number, e.items[1].number);
  }
  EXPECT_GT(got.size(), 1u);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

// ------------------------------------------------------- dynamic specs --

const char* const kDynSpec = "rmat:n=128,deg=6,seed=7,churn=0.05,updates=2";

std::string update_line(const std::string& spec,
                        const std::string& extra = "") {
  return "{\"cmd\": \"update\", \"spec\": " + quoted(spec) +
         (extra.empty() ? "" : ", " + extra) + "}";
}

TEST(ServeDynamic, AcquireMissOnDynamicSpecThrows) {
  // A dynamic spec's graphs carry endpoint-keyed weights only its scenario
  // can rebuild; a Registry fallback after eviction would silently serve a
  // differently-weighted twin. The pool refuses instead.
  EnginePool pool(4);
  EXPECT_THROW(pool.acquire(scenario::GraphSpec::parse(kDynSpec)),
               std::invalid_argument);
}

TEST(ServeDynamic, InstallMutationForcesEngineRebuild) {
  const scenario::GraphSpec spec = scenario::GraphSpec::parse(kDynSpec);
  dynamic::DynamicScenario sc(spec);
  EnginePool pool(4);
  pool.install(spec, sc.graph());
  bool hit = true;
  pool.acquire(spec, &hit);
  EXPECT_FALSE(hit);  // first acquire builds the Network
  EXPECT_EQ(pool.stats().stale_rebuilds, 0u);
  pool.acquire(spec, &hit);
  EXPECT_TRUE(hit);  // warm now

  sc.advance();
  pool.install(spec, sc.graph());  // mutate the pooled graph in place
  EnginePool::Entry& entry = pool.acquire(spec, &hit);
  // The engine built for the old topology must MISS, not serve: install()
  // reuses the entry's graph storage, so an address check could not tell
  // the graphs apart — the revision check does.
  EXPECT_FALSE(hit);
  EXPECT_EQ(pool.stats().stale_rebuilds, 1u);
  EXPECT_EQ(entry.network_revision, entry.graph_revision);
  EXPECT_EQ(entry.graph().edge_count(), sc.graph().edge_count());
  EXPECT_EQ(&entry.network->graph(), &entry.graph());
  EXPECT_EQ(pool.stats().installs, 2u);
  pool.acquire(spec, &hit);
  EXPECT_TRUE(hit);  // rebuilt once, warm again
}

TEST(ServeDynamic, ServedQueriesTrackUpdateCommands) {
  Service service(ServiceOptions{});
  const std::string line = query_line(kDynSpec, "bfs");
  // Replay the same scenario out-of-band as the oracle.
  dynamic::DynamicScenario oracle = dynamic::DynamicScenario::parse(kDynSpec);
  scenario::ScenarioRunner runner;

  const JsonValue cold = submit_one(service, line);
  EXPECT_TRUE(cold.flag("ok")) << cold.str("message", "");
  {
    const auto want = runner.run("bfs", oracle.graph(), "dyn");
    EXPECT_EQ(cold.num("rounds"), want.rounds);
    EXPECT_EQ(cold.num("messages"), want.messages);
    EXPECT_EQ(cold.num("edges"), want.edges);
  }
  EXPECT_TRUE(submit_one(service, line).flag("cache_hit"));

  // Advance one batch over the wire; the oracle follows.
  const JsonValue upd = submit_one(service, update_line(kDynSpec));
  oracle.advance();
  EXPECT_TRUE(upd.flag("ok")) << upd.str("message", "");
  EXPECT_EQ(upd.str("cmd", ""), "update");
  EXPECT_EQ(upd.num("batch"), 1);
  EXPECT_GT(upd.num("deleted") + upd.num("inserted"), 0);
  EXPECT_EQ(upd.num("nodes"), oracle.graph().node_count());
  EXPECT_EQ(upd.num("edges"), oracle.graph().edge_count());

  // The next query answers from the mutated topology, and the stale warm
  // engine was rebuilt, not served.
  const JsonValue after = submit_one(service, line);
  EXPECT_TRUE(after.flag("ok"));
  EXPECT_FALSE(after.flag("cache_hit"));
  const auto want = runner.run("bfs", oracle.graph(), "dyn");
  EXPECT_EQ(after.num("rounds"), want.rounds);
  EXPECT_EQ(after.num("messages"), want.messages);
  EXPECT_EQ(after.num("edges"), want.edges);
  EXPECT_EQ(service.pool_stats().stale_rebuilds, 1u);

  // batches=k advances k times in one command.
  const JsonValue upd2 =
      submit_one(service, update_line(kDynSpec, "\"batches\": 2"));
  oracle.advance();
  oracle.advance();
  EXPECT_EQ(upd2.num("batch"), 3);
  EXPECT_EQ(upd2.num("edges"), oracle.graph().edge_count());

  // The stats surface accounts the dynamics traffic.
  const JsonValue stats = submit_one(service, "{\"cmd\": \"stats\"}");
  const JsonValue* s = stats.find("stats");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->num("updates"), 2);
  EXPECT_EQ(s->num("update_batches"), 3);
  EXPECT_EQ(s->num("dynamic_scenarios"), 1);
  EXPECT_GT(s->num("edges_deleted") + s->num("edges_inserted"), 0);
}

TEST(ServeDynamic, UpdateFlushesThePendingWindowFirst) {
  // Queries submitted before an update must run against the topology they
  // were submitted under — the update flushes the window before mutating.
  ServiceOptions sopts;
  sopts.window = 4;
  Service service(std::move(sopts));
  EXPECT_TRUE(service.submit(query_line(kDynSpec, "bfs")).empty());
  const std::vector<std::string> out =
      service.submit(update_line(kDynSpec));
  ASSERT_EQ(out.size(), 2u);  // the flushed query, then the update ack
  const JsonValue q = parse_json(out[0]);
  const JsonValue u = parse_json(out[1]);
  EXPECT_TRUE(q.flag("ok")) << q.str("message", "");
  EXPECT_TRUE(u.flag("ok")) << u.str("message", "");
  dynamic::DynamicScenario oracle = dynamic::DynamicScenario::parse(kDynSpec);
  EXPECT_EQ(q.num("edges"), oracle.graph().edge_count());  // pre-update
  oracle.advance();
  EXPECT_EQ(u.num("edges"), oracle.graph().edge_count());  // post-update
}

TEST(ServeDynamic, UpdateErrorsAreTypedAndTheServiceKeepsServing) {
  Service service(ServiceOptions{});
  JsonValue r = submit_one(
      service, update_line("thick_cycle:groups=8,width=4"));  // static spec
  EXPECT_FALSE(r.flag("ok"));
  EXPECT_EQ(r.str("error", ""), "bad-spec");

  r = submit_one(service, update_line(kDynSpec, "\"batches\": 0"));
  EXPECT_FALSE(r.flag("ok"));
  EXPECT_EQ(r.str("error", ""), "bad-request");

  r = submit_one(service, update_line(kDynSpec, "\"root\": 1"));
  EXPECT_FALSE(r.flag("ok"));  // update takes no query fields
  EXPECT_EQ(r.str("error", ""), "bad-request");

  r = submit_one(service, update_line("nope:x=1,churn=0.1"));
  EXPECT_FALSE(r.flag("ok"));
  EXPECT_EQ(r.str("error", ""), "bad-spec");

  r = submit_one(service, update_line(kDynSpec, "\"batches\": 5000"));
  EXPECT_FALSE(r.flag("ok"));  // per-command batch cap
  EXPECT_EQ(r.str("error", ""), "bad-request");

  EXPECT_TRUE(submit_one(service, query_line(kPlainSpec, "bfs")).flag("ok"));
}

}  // namespace
}  // namespace fc::serve
