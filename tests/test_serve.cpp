// The scenario server subsystem: strict JSON/query parsing (including
// seeded randomized inputs), exact-compare bounded caches, and the
// determinism contract — the same query produces byte-identical answers at
// any cache state and any concurrency, and the served manifest equals the
// standalone CLI artifact by construction.
#include <gtest/gtest.h>

#include <sstream>

#include "gpucomm/cluster/cluster.hpp"
#include "gpucomm/cluster/placement.hpp"
#include "gpucomm/cluster/topo_snapshot.hpp"
#include "gpucomm/comm/mpi/mpi_comm.hpp"
#include "gpucomm/serve/cache.hpp"
#include "gpucomm/serve/json_value.hpp"
#include "gpucomm/serve/obs.hpp"
#include "gpucomm/serve/query.hpp"
#include "gpucomm/serve/scenario.hpp"
#include "gpucomm/serve/server.hpp"
#include "gpucomm/systems/registry.hpp"
#include "byte_mutations.hpp"

namespace gpucomm::serve {
namespace {

// --- JSON DOM parser --------------------------------------------------------

JsonValue parse_ok(const std::string& text) {
  std::string err;
  const auto v = parse_json(text, err);
  EXPECT_TRUE(v.has_value()) << err;
  return v.value_or(JsonValue::make_null());
}

bool valid_json(const std::string& text) {
  std::string err;
  return parse_json(text, err).has_value();
}

TEST(JsonValueParser, ParsesScalarsAndStructure) {
  const JsonValue v = parse_ok(R"({"a": 1, "b": -2.5, "c": "x\nA", "d": [true, null]})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members().size(), 4u);
  EXPECT_EQ(v.members()[0].first, "a");  // input order kept
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->as_int().value_or(-1), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->as_double(), -2.5);
  EXPECT_FALSE(v.find("b")->as_int().has_value());  // not integral
  EXPECT_EQ(v.find("c")->as_string(), "x\nA");
  ASSERT_TRUE(v.find("d")->is_array());
  EXPECT_TRUE(v.find("d")->items()[0].as_bool());
  EXPECT_TRUE(v.find("d")->items()[1].is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValueParser, ExactInt64RoundTrip) {
  // Bytes and seeds must survive without floating-point loss.
  const JsonValue v = parse_ok(R"({"n": 9007199254740993})");  // 2^53 + 1
  ASSERT_TRUE(v.find("n")->as_int().has_value());
  EXPECT_EQ(*v.find("n")->as_int(), 9007199254740993ll);
}

TEST(JsonValueParser, RejectsMalformedInputWithByteOffset) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "nul", "\"unterminated", "1 2",
                          "{\"a\":1 \"b\":2}", "{'a':1}", "+1", "01", "\"\t\""}) {
    std::string err;
    EXPECT_FALSE(parse_json(bad, err).has_value()) << bad;
    EXPECT_NE(err.find("at byte"), std::string::npos) << err;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
}

TEST(JsonValueParser, RejectsDuplicateKeys) {
  std::string err;
  EXPECT_FALSE(parse_json(R"({"gpus": 2, "gpus": 4})", err).has_value());
  EXPECT_NE(err.find("duplicate"), std::string::npos);
}

// --- query parsing ----------------------------------------------------------

std::optional<ScenarioQuery> query_of(const std::string& text, std::string& err) {
  const auto doc = parse_json(text, err);
  if (!doc.has_value()) return std::nullopt;
  return parse_query(*doc, err);
}

TEST(QueryParse, DefaultsMatchCli) {
  std::string err;
  const auto q = query_of("{}", err);
  ASSERT_TRUE(q.has_value()) << err;
  const cli::CliArgs defaults;
  EXPECT_EQ(q->system, defaults.system);
  EXPECT_EQ(q->op, defaults.op);
  EXPECT_EQ(q->mechanism, defaults.mechanism);
  EXPECT_EQ(q->gpus, defaults.gpus);
  EXPECT_EQ(q->min_bytes, defaults.min_bytes);
  EXPECT_EQ(q->max_bytes, defaults.max_bytes);
  EXPECT_EQ(q->seed, defaults.seed);
  EXPECT_FALSE(q->cells);
  EXPECT_TRUE(q->noise);
}

TEST(QueryParse, FullQueryRoundTrips) {
  std::string err;
  const auto q = query_of(
      R"({"id": 7, "system": "alps", "op": "allreduce", "mechanism": "ccl",
          "gpus": 16, "min": 1024, "max": 1048576, "space": "host",
          "tuned": false, "sl": 3, "placement": "groups", "iters": 7,
          "seed": 9, "noise": false, "nodes": 8, "harness": "cells",
          "metrics_out": "m.json", "deadline_ms": 250})",
      err);
  ASSERT_TRUE(q.has_value()) << err;
  EXPECT_EQ(q->id, 7);
  EXPECT_EQ(q->system, "alps");
  EXPECT_EQ(q->op, "allreduce");
  EXPECT_EQ(q->mechanism, "ccl");
  EXPECT_EQ(q->gpus, 16);
  EXPECT_EQ(q->space, MemSpace::kHost);
  EXPECT_FALSE(q->tuned);
  EXPECT_EQ(q->service_level, 3);
  EXPECT_EQ(q->placement, Placement::kScatterGroups);
  EXPECT_EQ(q->iters, 7);
  EXPECT_EQ(q->seed, 9u);
  EXPECT_FALSE(q->noise);
  EXPECT_EQ(q->nodes, 8);
  EXPECT_TRUE(q->cells);
  EXPECT_EQ(q->metrics_out, "m.json");
  EXPECT_EQ(q->deadline_ms, 250);
}

TEST(QueryParse, StrictRejections) {
  const char* bad[] = {
      R"({"bogus": 1})",                        // unknown field
      R"({"net_shards": 4})",                   // removed field
      R"({"gpus": "four"})",                    // wrong type
      R"({"gpus": 2.5})",                       // non-integral number
      R"({"gpus": 0})",                         // out of range
      R"({"system": "frontier"})",              // unknown system
      R"({"op": "gather"})",                    // unknown op
      R"({"mechanism": "nvshmem"})",            // unknown mechanism
      R"({"placement": "diagonal"})",           // unknown placement
      R"({"space": "unified"})",                // unknown space
      R"({"harness": "parallel"})",             // unknown harness
      R"({"sl": 16})",                          // service level range
      R"({"min": 4096, "max": 1024})",          // min > max
      R"({"min": 1, "max": 9223372036854775807})",  // x4 sweep would wrap Bytes
      R"({"max": 1099511627777})",              // one byte over the 1 TiB bound
      R"({"min": 1099511627777, "max": 1099511627777})",
      R"({"op": "gath\ner"})",                  // echoed names stay one line
      R"({"sys\ntem": "alps"})",
      R"({"seed": -1})",                        // negative seed
      R"({"deadline_ms": -5})",                 // negative deadline
      R"({"deadline_ms": 86400001})",           // deadline over a day
      R"({"deadline_ms": "soon"})",             // wrong deadline type
      R"([1, 2])",                              // not an object
      R"({"harness": "cells", "faults": "at 1us down link 4"})",  // cells+faults
  };
  for (const char* text : bad) {
    std::string err;
    EXPECT_FALSE(query_of(text, err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
}

TEST(QueryParse, RandomMutationsYieldAQueryOrOneLineError) {
  // Seeded flips, inserts, deletes and truncations of valid request lines:
  // every input must come back as a value or a single-line error — never an
  // exception, a crash, or an accepted sweep that could run away.
  const char* seeds[] = {
      R"({"id": 7, "system": "alps", "op": "allreduce", "mechanism": "ccl",
          "gpus": 16, "min": 1024, "max": 1048576, "space": "host",
          "tuned": false, "sl": 3, "placement": "groups", "iters": 7,
          "seed": 9, "noise": false, "nodes": 8, "harness": "cells",
          "metrics_out": "m.json", "deadline_ms": 250})",
      R"({"id": 1, "min": 1, "max": 1099511627776,
          "faults": "at 1us down link 4; at 2us up link 4"})",
      R"({"control": "stats", "id": 3, "nested": [1, -2.5e3, true, null, {"k": "\u00e9\"\\"}]})",
  };
  Rng rng(20241017);
  std::size_t values = 0;
  std::size_t queries = 0;
  for (int i = 0; i < 12000; ++i) {
    const std::string line = test::mutate(seeds[i % 3], rng);
    std::string err;
    std::optional<JsonValue> doc;
    ASSERT_NO_THROW(doc = parse_json(line, err)) << line;
    if (!doc.has_value()) {
      EXPECT_FALSE(err.empty()) << line;
      EXPECT_EQ(err.find('\n'), std::string::npos) << err;
      continue;
    }
    ++values;
    std::optional<ScenarioQuery> q;
    ASSERT_NO_THROW(q = parse_query(*doc, err)) << line;
    if (!q.has_value()) {
      EXPECT_FALSE(err.empty()) << line;
      EXPECT_EQ(err.find('\n'), std::string::npos) << err;
      continue;
    }
    ++queries;
    EXPECT_LE(q->min_bytes, q->max_bytes) << line;
    EXPECT_LE(q->max_bytes, cli::kMaxSweepBytes) << line;
    EXPECT_LE(cli::sweep_sizes(q->min_bytes, q->max_bytes).size(), 21u) << line;
  }
  // The corpus exercises both layers, not just the JSON syntax errors.
  EXPECT_GT(values, 500u);
  EXPECT_GT(queries, 100u);
}

TEST(QueryKeys, StructuralDifferenceIsAMiss) {
  // Exact-compare keying: any one-field change must change the key (a stale
  // hit is impossible by construction).
  std::string err;
  const ScenarioQuery base = *query_of("{}", err);
  const char* variants[] = {
      R"({"system": "alps"})",      R"({"op": "allreduce"})",
      R"({"mechanism": "ccl"})",    R"({"gpus": 4})",
      R"({"min": 2})",              R"({"max": 1024})",
      R"({"space": "host"})",       R"({"tuned": false})",
      R"({"sl": 1})",               R"({"placement": "groups"})",
      R"({"iters": 9})",            R"({"seed": 7})",
      R"({"noise": false})",        R"({"nodes": 2})",
      R"({"harness": "cells"})",    R"({"faults": "at 1us down link 0"})",
  };
  for (const char* text : variants) {
    const auto q = query_of(text, err);
    ASSERT_TRUE(q.has_value()) << text << ": " << err;
    EXPECT_NE(q->canonical_key(), base.canonical_key()) << text;
  }
  // id and metrics_out are response plumbing, not experiment identity.
  EXPECT_EQ(query_of(R"({"id": 99})", err)->canonical_key(), base.canonical_key());
  EXPECT_EQ(query_of(R"({"metrics_out": "x.json"})", err)->canonical_key(),
            base.canonical_key());
  // ... and so is deadline_ms: the budget changes whether the query runs at
  // all under load, never what the answer says when it does run.
  EXPECT_EQ(query_of(R"({"deadline_ms": 100})", err)->canonical_key(),
            base.canonical_key());
}

TEST(QueryKeys, FaultSpecCannotForgeKeyCollisions) {
  ScenarioQuery a, b;
  // Appended rather than assigned: GCC 12's -Wrestrict misfires on the
  // inlined literal assignment here.
  a.faults += "x";
  b.faults += "x|min=1";  // would collide under naive concatenation
  b.min_bytes = 1;
  EXPECT_NE(a.canonical_key(), b.canonical_key());
}

// --- ExactCache -------------------------------------------------------------

TEST(ServerCaches, BudgetSplitsNineTenthsResponsesOneTenthTopology) {
  const ServerCaches caches(100u << 20);
  const std::vector<CacheStats> stats = caches.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "topology");
  EXPECT_EQ(stats[0].capacity_bytes, (100u << 20) / 10);
  EXPECT_EQ(stats[1].name, "responses");
  EXPECT_EQ(stats[1].capacity_bytes, (100u << 20) - (100u << 20) / 10);
}

TEST(ExactCache, CountsHitsAndMisses) {
  ExactCache<int> c("t", 1024);
  EXPECT_EQ(c.find("a"), nullptr);
  c.insert("a", std::make_shared<int>(1), 16);
  const auto hit = c.find("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  const CacheStats s = c.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 16u);
}

TEST(ExactCache, FifoEvictionUnderSmallCap) {
  ExactCache<int> c("t", 100);
  c.insert("a", std::make_shared<int>(1), 40);
  c.insert("b", std::make_shared<int>(2), 40);
  c.insert("c", std::make_shared<int>(3), 40);  // evicts "a" (first inserted)
  EXPECT_EQ(c.find("a"), nullptr);
  EXPECT_NE(c.find("b"), nullptr);
  EXPECT_NE(c.find("c"), nullptr);
  const CacheStats s = c.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, 100u);
  // FIFO, not LRU: touching "b" does not save it from eviction order.
  c.insert("d", std::make_shared<int>(4), 40);
  EXPECT_EQ(c.find("b"), nullptr);
}

TEST(ExactCache, OversizedValuesRejectedAndReplaceKeepsPosition) {
  ExactCache<int> c("t", 100);
  c.insert("big", std::make_shared<int>(0), 101);
  EXPECT_EQ(c.find("big"), nullptr);
  EXPECT_EQ(c.stats().rejected, 1u);

  c.insert("a", std::make_shared<int>(1), 30);
  c.insert("a", std::make_shared<int>(2), 50);  // replace in place
  const auto v = c.find("a");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 2);
  EXPECT_EQ(c.stats().entries, 1u);
  EXPECT_EQ(c.stats().bytes, 50u);
}

// --- topology snapshots -----------------------------------------------------

TEST(TopologySnapshot, SnapshotClusterMatchesFreshCluster) {
  const SystemConfig cfg = system_by_name("leonardo");
  ClusterOptions copt;
  copt.nodes = 2;
  copt.seed = 7;
  const auto topo = build_topology_snapshot(cfg, 2, Placement::kPacked);

  Cluster fresh(cfg, copt);
  Cluster snap(*topo, copt);
  CommOptions opt;
  opt.env = cfg.tuned_env();
  MpiComm a(fresh, first_n_gpus(fresh, 8), opt);
  MpiComm b(snap, first_n_gpus(snap, 8), opt);
  // Bit-identical behavior: same simulated result for the same seed.
  EXPECT_EQ(a.time_allreduce(1_MiB).ps, b.time_allreduce(1_MiB).ps);
  EXPECT_EQ(a.time_alltoall(65536).ps, b.time_alltoall(65536).ps);
}

TEST(TopologySnapshot, SnapshotIsSharableAcrossClusters) {
  const SystemConfig cfg = system_by_name("lumi");
  const auto topo = build_topology_snapshot(cfg, 2, Placement::kScatterGroups);
  ClusterOptions copt;
  copt.nodes = 2;
  copt.placement = Placement::kScatterGroups;
  // Two clusters off one snapshot: the clone isolates adaptive-routing
  // cursor state, so both behave like fresh builds.
  Cluster c1(*topo, copt);
  Cluster c2(*topo, copt);
  CommOptions opt;
  opt.env = cfg.tuned_env();
  MpiComm m1(c1, first_n_gpus(c1, 8), opt);
  MpiComm m2(c2, first_n_gpus(c2, 8), opt);
  EXPECT_EQ(m1.time_allreduce(65536).ps, m2.time_allreduce(65536).ps);
}

TEST(TopologySnapshot, RejectsMismatchedOptions) {
  const SystemConfig cfg = system_by_name("leonardo");
  const auto topo = build_topology_snapshot(cfg, 2, Placement::kPacked);
  ClusterOptions wrong;
  wrong.nodes = 3;
  EXPECT_THROW(Cluster(*topo, wrong), std::invalid_argument);
}

// --- run_scenario determinism ----------------------------------------------

ScenarioQuery small_query(bool cells) {
  std::string err;
  auto q = query_of(R"({"op": "allreduce", "mechanism": "mpi", "gpus": 4,
                        "min": 1024, "max": 16384, "iters": 3})",
                    err);
  q->cells = cells;
  return *q;
}

TEST(RunScenario, WarmCacheAnswersAreByteIdenticalToCold) {
  for (const bool cells : {false, true}) {
    const ScenarioQuery q = small_query(cells);
    std::string err;
    // Uncached reference.
    const auto ref = run_scenario(q, nullptr, /*want_manifest=*/true, /*jobs=*/1, err);
    ASSERT_NE(ref, nullptr) << err;
    ServerCaches caches(64u << 20);
    const auto cold = run_scenario(q, &caches, true, 1, err);
    ASSERT_NE(cold, nullptr) << err;
    const auto warm = run_scenario(q, &caches, true, 1, err);
    ASSERT_NE(warm, nullptr) << err;
    for (const auto* o : {cold.get(), warm.get()}) {
      EXPECT_EQ(o->header, ref->header) << "cells=" << cells;
      EXPECT_EQ(o->table, ref->table) << "cells=" << cells;
      EXPECT_EQ(o->manifest_pretty, ref->manifest_pretty) << "cells=" << cells;
      EXPECT_EQ(o->manifest_compact, ref->manifest_compact) << "cells=" << cells;
    }
    EXPECT_GE(caches.responses.stats().hits, 1u);
  }
}

TEST(RunScenario, EvictionUnderTinyBudgetStaysCorrect) {
  // A budget too small to hold anything degrades to recomputation, never to
  // wrong answers.
  const ScenarioQuery q = small_query(true);
  std::string err;
  const auto ref = run_scenario(q, nullptr, true, 1, err);
  ASSERT_NE(ref, nullptr) << err;
  ServerCaches tiny(64);  // bytes, not MiB: everything is evicted/rejected
  for (int round = 0; round < 2; ++round) {
    const auto out = run_scenario(q, &tiny, true, 1, err);
    ASSERT_NE(out, nullptr) << err;
    EXPECT_EQ(out->manifest_pretty, ref->manifest_pretty);
  }
  EXPECT_EQ(tiny.responses.stats().hits, 0u);
}

TEST(RunScenario, CellsAreByteIdenticalAtAnyWorkerCount) {
  // One cell sweep over every size: at 4 jobs the cells run concurrently,
  // each cloning its cluster from the one shared TopologySnapshot, and merge
  // in canonical (size, rep) order. Scattered across groups, the ranks
  // cross noisy fabric links, so each cell's seed shows in the percentiles.
  std::string err;
  const auto q = query_of(R"({"op": "alltoall", "mechanism": "mpi", "gpus": 8,
                              "placement": "groups", "min": 65536, "max": 1048576,
                              "iters": 4, "harness": "cells"})",
                          err);
  ASSERT_TRUE(q.has_value()) << err;
  const auto serial = run_scenario(*q, nullptr, true, 1, err);
  ASSERT_NE(serial, nullptr) << err;
  const auto parallel = run_scenario(*q, nullptr, true, 4, err);
  ASSERT_NE(parallel, nullptr) << err;
  EXPECT_EQ(parallel->header, serial->header);
  EXPECT_EQ(parallel->table, serial->table);
  EXPECT_EQ(parallel->manifest_pretty, serial->manifest_pretty);
  EXPECT_EQ(parallel->manifest_compact, serial->manifest_compact);
}

TEST(RunScenario, ReportsErrorsAsOneLine) {
  ScenarioQuery q = small_query(false);
  q.nodes = 1;
  q.gpus = 64;  // 1 Leonardo node cannot host 64 ranks
  std::string err;
  EXPECT_EQ(run_scenario(q, nullptr, true, 1, err), nullptr);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(err.find('\n'), std::string::npos);

  ScenarioQuery f = small_query(false);
  f.faults = "at nonsense";
  EXPECT_EQ(run_scenario(f, nullptr, true, 1, err), nullptr);
  EXPECT_NE(err.find("--faults"), std::string::npos);
}

// --- serve_loop -------------------------------------------------------------

std::string serve(const std::string& input, int jobs = 1,
                  ServerCaches* caches = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  ServeOptions o;
  o.jobs = jobs;
  o.cache_bytes = 64u << 20;
  o.caches = caches;
  serve_loop(in, out, o);
  return out.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

const char* kQ1 =
    R"({"id": 1, "op": "pingpong", "mechanism": "mpi", "gpus": 2, "min": 1024, "max": 1024, "iters": 2})";

TEST(ServeLoop, AnswersEveryLineInOrderWithValidJson) {
  std::ostringstream in;
  in << kQ1 << "\n"
     << R"({"id": 2, "bogus": true})" << "\n"
     << "this is not json\n"
     << R"({"id": 3, "control": "ping"})" << "\n";
  const auto lines = lines_of(serve(in.str()));
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& l : lines) {
    EXPECT_TRUE(valid_json(l)) << l;
  }
  EXPECT_NE(lines[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"manifest\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("bogus"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("\"control\":\"ping\""), std::string::npos);
}

TEST(ServeLoop, ResponsesInvariantAcrossWorkerCountAndCacheState) {
  std::ostringstream in;
  for (int i = 0; i < 6; ++i) {
    in << R"({"id": )" << i
       << R"(, "op": "allgather", "mechanism": "mpi", "gpus": 4, "min": )" << (1024 << i)
       << R"(, "max": )" << (1024 << i) << R"(, "iters": 2, "harness": "cells"})" << "\n";
  }
  const std::string serial = serve(in.str(), 1);
  const std::string parallel = serve(in.str(), 4);
  EXPECT_EQ(serial, parallel);

  // Warm pass over one cache set: byte-identical to the cold pass.
  ServerCaches caches(64u << 20);
  const std::string cold = serve(in.str(), 2, &caches);
  const std::string warm = serve(in.str(), 2, &caches);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold, serial);
}

TEST(ServeLoop, StatsControlReportsCacheCountersAfterBarrier) {
  ServerCaches caches(64u << 20);
  std::ostringstream in;
  in << kQ1 << "\n" << kQ1 << "\n" << R"({"id": 9, "control": "stats"})" << "\n";
  // jobs=1 so the identical second query is guaranteed to hit the response
  // cache (parallel workers may race identical in-flight queries — harmless
  // for correctness, but it would make the hit count nondeterministic here).
  const auto lines = lines_of(serve(in.str(), 1, &caches));
  ASSERT_EQ(lines.size(), 3u);
  // Scenario responses never embed cache counters (they would break the
  // warm/cold byte-identity); the stats control line carries them.
  EXPECT_EQ(lines[0].find("hits"), std::string::npos);
  EXPECT_EQ(lines[0], lines[1]);  // identical query -> identical response bytes
  EXPECT_TRUE(valid_json(lines[2])) << lines[2];
  EXPECT_NE(lines[2].find("\"control\": \"stats\""), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("responses"), std::string::npos);
  EXPECT_EQ(caches.responses.stats().hits, 1u);  // second query hit
}

TEST(ServeLoop, ShutdownStopsTheLoop) {
  std::ostringstream in;
  in << R"({"id": 1, "control": "shutdown"})" << "\n" << kQ1 << "\n";
  const auto lines = lines_of(serve(in.str()));
  ASSERT_EQ(lines.size(), 1u);  // nothing after shutdown is answered
  EXPECT_NE(lines[0].find("\"control\":\"shutdown\""), std::string::npos);
}

// --- latency histograms (serve/obs.hpp) -------------------------------------

TEST(ServeObs, LatencyCountsEqualAnsweredAndSurfaceInStats) {
  std::istringstream in(std::string(kQ1) + "\n" + kQ1 + "\n" +
                        R"({"id": 5, "control": "stats"})" + "\n");
  std::ostringstream out;
  ServeOptions o;
  o.jobs = 2;
  o.cache_bytes = 64u << 20;
  const ServeResult r = serve_loop(in, out, o);
  const auto& e2e = r.latency.stage[static_cast<int>(Stage::kE2e)];
  EXPECT_EQ(e2e.count, r.counters.answered);
  EXPECT_EQ(e2e.count, 2u);
  EXPECT_GT(e2e.max_us, 0.0);
  EXPECT_LE(e2e.p50_us, e2e.max_us);
  // Parse covers every request line (scenario and control alike).
  EXPECT_EQ(r.latency.stage[static_cast<int>(Stage::kParse)].count, 3u);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(valid_json(lines[2])) << lines[2];
  EXPECT_NE(lines[2].find("\"latency\""), std::string::npos) << lines[2];
  // The stats barrier sees every earlier query's e2e sample, at any worker
  // count.
  EXPECT_NE(lines[2].find("\"e2e_us\": {\"count\": 2,"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"queue_wait_us\""), std::string::npos) << lines[2];
}

TEST(ServeObs, MetricsControlEmitsPrometheusText) {
  const auto lines = lines_of(serve(std::string(kQ1) + "\n" +
                                    R"({"id": 2, "control": "metrics"})" + "\n"));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(valid_json(lines[1])) << lines[1];
  EXPECT_NE(lines[1].find("\"control\":\"metrics\""), std::string::npos);
  EXPECT_NE(lines[1].find("gpucomm_serve_answered_total 1"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("gpucomm_serve_cache_hits_total{cache=\\\"responses\\\"}"),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("gpucomm_serve_latency_us"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("quantile="), std::string::npos) << lines[1];
}

TEST(ServeLoop, ServedManifestEqualsStandaloneArtifact) {
  // The response's manifest is the same document the standalone CLI's
  // --metrics-out writes, in compact form.
  std::string err;
  const auto doc = parse_json(kQ1, err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto q = parse_query(*doc, err);
  ASSERT_TRUE(q.has_value()) << err;
  const auto standalone = run_scenario(*q, nullptr, /*want_manifest=*/true, /*jobs=*/1, err);
  ASSERT_NE(standalone, nullptr) << err;

  const auto lines = lines_of(serve(std::string(kQ1) + "\n"));
  ASSERT_EQ(lines.size(), 1u);
  const std::string prefix = "{\"id\":1,\"ok\":true,\"manifest\":";
  ASSERT_EQ(lines[0].substr(0, prefix.size()), prefix);
  EXPECT_EQ(lines[0], prefix + standalone->manifest_compact + "}");
}

}  // namespace
}  // namespace gpucomm::serve
