// End-to-end observability: tracing a real estimate() run, the
// per-set solve records and their sum-equals-stats invariant, the JSON
// report, and determinism of everything non-temporal across thread
// counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/parametric.hpp"
#include "cinderella/obs/json.hpp"
#include "cinderella/obs/json_parse.hpp"
#include "cinderella/obs/metrics.hpp"
#include "cinderella/obs/report.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/tools/tool.hpp"
#include "test_util/root_systems.hpp"
#include "test_util/temp_path.hpp"

namespace cinderella {
namespace {

struct Prepared {
  explicit Prepared(const std::string& name,
                    ipet::CacheMode mode = ipet::CacheMode::AllMiss)
      : bench(suite::benchmarkByName(name)),
        compiled(codegen::compileSource(bench.source)),
        analyzer(compiled, bench.rootFunction,
                 [mode] {
                   ipet::AnalyzerOptions o;
                   o.cacheMode = mode;
                   return o;
                 }()) {
    for (const auto& c : bench.constraints) {
      analyzer.addConstraint(c.text, c.scope);
    }
  }

  const suite::Benchmark& bench;
  codegen::CompileResult compiled;
  ipet::Analyzer analyzer;
};

int countEvents(const std::vector<obs::TraceEvent>& events,
                const std::string& name) {
  int n = 0;
  for (const auto& e : events) n += e.name == name ? 1 : 0;
  return n;
}

TEST(ObservedEstimate, TraceCoversEveryStageAndIlpSolve) {
  // dhry fans out to 8 constraint sets (5 pruned as null), so the trace
  // must show one set-solve span per set and one ilp span per solve.
  Prepared prep("dhry");
  obs::Tracer tracer;
  ipet::SolveControl control;
  control.threads = 4;
  control.tracer = &tracer;
  const ipet::Estimate estimate = prep.analyzer.estimate(control);

  const auto events = tracer.events();
  EXPECT_EQ(countEvents(events, "estimate"), 1);
  EXPECT_EQ(countEvents(events, "build-base-problem"), 1);
  EXPECT_EQ(countEvents(events, "combine-constraints"), 1);
  EXPECT_EQ(countEvents(events, "solve-sets"), 1);
  EXPECT_EQ(countEvents(events, "merge"), 1);
  // Deduplicated/dominated sets are skipped before dispatch, so solve
  // spans exist only for the scheduled ones.
  int scheduled = 0;
  for (const ipet::SetSolveRecord& rec : estimate.setRecords) {
    scheduled += rec.sharedWith < 0 ? 1 : 0;
  }
  EXPECT_EQ(countEvents(events, "set-solve"), scheduled);
  EXPECT_EQ(countEvents(events, "lp-presolve"), scheduled);
  EXPECT_EQ(countEvents(events, "lp-probe"), scheduled);
  EXPECT_EQ(countEvents(events, "ilp-worst") + countEvents(events, "ilp-best"),
            estimate.stats.ilpSolves);

  const std::string json = tracer.chromeTraceJson();
  EXPECT_EQ(obs::jsonLint(json), "");
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ObservedEstimate, NoTracerMeansNoRecordsAreLost) {
  // setRecords are filled whether or not a tracer is attached.
  Prepared prep("check_data");
  const ipet::Estimate estimate = prep.analyzer.estimate();
  EXPECT_EQ(static_cast<int>(estimate.setRecords.size()),
            estimate.stats.constraintSets);
}

TEST(ObservedEstimate, SetRecordsSumToSolveStats) {
  for (const char* name : {"check_data", "piksrt", "dhry"}) {
    SCOPED_TRACE(name);
    Prepared prep(name);
    const ipet::Estimate e = prep.analyzer.estimate();
    ASSERT_EQ(static_cast<int>(e.setRecords.size()), e.stats.constraintSets);

    int pruned = 0;
    int deduped = 0;
    int dominated = 0;
    int ilpSolves = 0;
    int lpCalls = 0;
    int nodes = 0;
    int pivots = 0;
    bool allIntegral = true;
    for (const ipet::SetSolveRecord& rec : e.setRecords) {
      pruned += rec.pruned ? 1 : 0;
      if (rec.sharedWith >= 0 && !rec.pruned) {
        (rec.dominated ? dominated : deduped) += 1;
      }
      for (const ipet::IlpSolveRecord* ilp : {&rec.worst, &rec.best}) {
        if (!ilp->solved) continue;
        ++ilpSolves;
        lpCalls += ilp->lpCalls;
        nodes += ilp->nodes;
        pivots += ilp->pivots;
        allIntegral = allIntegral && ilp->firstRelaxationIntegral;
      }
    }
    EXPECT_EQ(pruned, e.stats.prunedNullSets);
    EXPECT_EQ(deduped, e.stats.dedupedSets);
    EXPECT_EQ(dominated, e.stats.dominatedSets);
    EXPECT_EQ(ilpSolves, e.stats.ilpSolves);
    EXPECT_EQ(lpCalls, e.stats.lpCalls);
    EXPECT_EQ(nodes, e.stats.nodesExpanded);
    EXPECT_EQ(pivots, e.stats.totalPivots);
    EXPECT_EQ(allIntegral, e.stats.allFirstRelaxationsIntegral);
  }
}

TEST(ObservedEstimate, RecordsAreDeterministicAcrossThreadCounts) {
  Prepared prep("dhry");
  ipet::SolveControl serial;
  serial.threads = 1;
  ipet::SolveControl parallel;
  parallel.threads = 4;
  const ipet::Estimate a = prep.analyzer.estimate(serial);
  const ipet::Estimate b = prep.analyzer.estimate(parallel);

  ASSERT_EQ(a.setRecords.size(), b.setRecords.size());
  for (std::size_t i = 0; i < a.setRecords.size(); ++i) {
    SCOPED_TRACE(i);
    const ipet::SetSolveRecord& ra = a.setRecords[i];
    const ipet::SetSolveRecord& rb = b.setRecords[i];
    EXPECT_EQ(ra.setIndex, rb.setIndex);
    EXPECT_EQ(ra.userConstraints, rb.userConstraints);
    EXPECT_EQ(ra.pruned, rb.pruned);
    EXPECT_EQ(ra.probePivots, rb.probePivots);
    EXPECT_EQ(ra.sharedWith, rb.sharedWith);
    EXPECT_EQ(ra.dominated, rb.dominated);
    for (const auto& [ia, ib] : {std::pair{&ra.worst, &rb.worst},
                                std::pair{&ra.best, &rb.best}}) {
      EXPECT_EQ(ia->solved, ib->solved);
      EXPECT_EQ(ia->feasible, ib->feasible);
      EXPECT_EQ(ia->objective, ib->objective);
      EXPECT_EQ(ia->nodes, ib->nodes);
      EXPECT_EQ(ia->lpCalls, ib->lpCalls);
      EXPECT_EQ(ia->pivots, ib->pivots);
      EXPECT_EQ(ia->firstRelaxationIntegral, ib->firstRelaxationIntegral);
    }
  }

  // The whole timing-free report is byte-identical across thread counts.
  obs::ReportOptions stable;
  stable.includeTimings = false;
  EXPECT_EQ(obs::reportJson("dhry", a, nullptr, stable),
            obs::reportJson("dhry", b, nullptr, stable));
}

TEST(ObservedEstimate, ReportJsonIsValidAndCarriesTheRun) {
  Prepared prep("check_data");
  const ipet::Estimate estimate = prep.analyzer.estimate();
  obs::MetricsRegistry metrics;
  obs::addEstimateMetrics(estimate, &metrics);
  const std::string json =
      obs::reportJson("check_data", estimate, &metrics, {});
  EXPECT_EQ(obs::jsonLint(json), "") << json;
  EXPECT_NE(json.find("\"program\":\"check_data\""), std::string::npos);
  EXPECT_NE(json.find("\"bound\""), std::string::npos);
  EXPECT_NE(json.find("\"sets\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"ilp.solves\""), std::string::npos);
  // The metrics are the records' view: one sample per solved ILP, summing
  // to the stats.
  EXPECT_EQ(metrics.counter("ilp.solves").value(), estimate.stats.ilpSolves);
  EXPECT_EQ(metrics.histogram("ilp.nodes").count(), estimate.stats.ilpSolves);
  EXPECT_EQ(metrics.histogram("ilp.nodes").sum(),
            estimate.stats.nodesExpanded);
  EXPECT_EQ(metrics.histogram("ilp.pivots").sum(), estimate.stats.totalPivots);

  // Without a registry the metrics key is simply absent.
  const std::string bare = obs::reportJson("check_data", estimate, nullptr, {});
  EXPECT_EQ(obs::jsonLint(bare), "");
  EXPECT_EQ(bare.find("\"metrics\""), std::string::npos);
}

TEST(ObservedEstimate, SolveTableHasOneRowPerSet) {
  Prepared prep("dhry");
  const ipet::Estimate estimate = prep.analyzer.estimate();
  const std::string table = obs::formatSolveTable(estimate);
  int rows = 0;
  for (std::size_t pos = 0; (pos = table.find('\n', pos)) != std::string::npos;
       ++pos) {
    ++rows;
  }
  // Header plus one line per constraint set.
  EXPECT_GE(rows, estimate.stats.constraintSets + 1);
  EXPECT_NE(table.find("null"), std::string::npos);  // dhry has pruned sets
}

// README's parametric example: "@8 <= @N" caps the loop body (line 8).
constexpr const char* kReadmeLoop =
    "int acc;\n"
    "void f() {\n"
    "  int i;\n"
    "  i = 0;\n"
    "  acc = 0;\n"
    "  while (i < 64) {\n"
    "    __loopbound(0, 64);\n"
    "    acc = acc + i;\n"
    "    i = i + 1;\n"
    "  }\n"
    "}\n";

TEST(ObservedEstimate, ParametricSolveBuildsTheSystemOnce) {
  // Every direct solve of the sweep binds a new N; bindings only
  // resolve user rows, so the system is built once for all of them.
  const auto compiled = codegen::compileSource(kReadmeLoop);
  ipet::Analyzer analyzer(compiled, "f");
  analyzer.addConstraint("@8 <= @N");
  obs::Tracer tracer;
  ipet::SolveControl control;
  control.tracer = &tracer;
  const ipet::ParametricResult result =
      ipet::solveParametric(analyzer, {{"N", 0, 64}}, control);
  EXPECT_EQ(result.stats.directSolves, 65);

  const auto events = tracer.events();
  EXPECT_EQ(countEvents(events, "estimate"), result.stats.directSolves);
  EXPECT_EQ(countEvents(events, "build-base-problem"), 1);
  EXPECT_EQ(countEvents(events, "combine-constraints"), 1);
}

int countInTrace(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_EQ(obs::jsonLint(json), "");
  const std::string quoted = "\"" + name + "\"";
  int n = 0;
  for (std::size_t pos = 0; (pos = json.find(quoted, pos)) != std::string::npos;
       pos += quoted.size()) {
    ++n;
  }
  return n;
}

TEST(ObservedEstimate, TracedCliRunBuildsTheSystemOnce) {
  // The CLI takes the digest, then solves: one build serves both, in a
  // concrete run and in a parametric one.
  const std::string tracePath = test_util::uniqueTempPath("trace.json");
  tools::ToolOptions concrete;
  concrete.benchmark = "dhry";
  concrete.traceOut = tracePath;
  std::ostringstream out, err;
  ASSERT_EQ(tools::runTool(concrete, out, err), 0) << err.str();
  EXPECT_EQ(countInTrace(tracePath, "build-base-problem"), 1);
  EXPECT_EQ(countInTrace(tracePath, "estimate"), 1);

  const std::string sourcePath = test_util::uniqueTempPath("loop.mc");
  std::ofstream(sourcePath) << kReadmeLoop;
  tools::ToolOptions parametric;
  parametric.sourcePath = sourcePath;
  parametric.root = "f";
  parametric.constraints = {"@8 <= @N"};
  parametric.params = {{"N", 0, 64}};
  parametric.traceOut = tracePath;
  ASSERT_EQ(tools::runTool(parametric, out, err), 0) << err.str();
  EXPECT_EQ(countInTrace(tracePath, "build-base-problem"), 1);
  std::remove(tracePath.c_str());
  std::remove(sourcePath.c_str());
}


/// The "metrics" object of the --report-json document a CLI run of
/// `options` writes.
obs::JsonValue reportMetrics(tools::ToolOptions options) {
  const std::string reportPath = test_util::uniqueTempPath("report.json");
  options.reportJson = reportPath;
  std::ostringstream out, err;
  EXPECT_EQ(tools::runTool(options, out, err), 0) << err.str();
  std::ifstream in(reportPath);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(reportPath.c_str());
  std::string error;
  const std::optional<obs::JsonValue> report =
      obs::jsonParse(text.str(), &error);
  EXPECT_TRUE(report.has_value()) << error;
  const obs::JsonValue* metrics = report ? report->find("metrics") : nullptr;
  EXPECT_NE(metrics, nullptr);
  return metrics != nullptr ? *metrics : obs::JsonValue{};
}

/// Folds the count, sum and non-empty buckets of histogram `name` into
/// `hash` (-1 for an absent histogram).
void hashHistogram(const obs::JsonValue& metrics, std::string_view name,
                   test_util::Fnv* hash) {
  const obs::JsonValue* histograms = metrics.find("histograms");
  const obs::JsonValue* h =
      histograms != nullptr ? histograms->find(name) : nullptr;
  if (h == nullptr) {
    hash->i64(-1);
    return;
  }
  hash->i64(h->intOr("count", -1));
  hash->i64(h->intOr("sum", -1));
  if (const obs::JsonValue* buckets = h->find("buckets")) {
    hash->u64(buckets->items.size());
    for (const obs::JsonValue& bucket : buckets->items) {
      for (const obs::JsonValue& field : bucket.items) hash->i64(field.intValue);
    }
  }
}

// The CLI report's ILP metrics for every Table I program and cache mode:
// ilp.solves and the count, sum and buckets of the per-solve node and
// pivot histograms.  Timing histograms are left out.
constexpr test_util::Golden kIlpMetrics[] = {
    {"check_data/all-miss", 0xe8381a8d4e7fda20ULL},
    {"check_data/first-iteration-split", 0xf86df817fc580556ULL},
    {"check_data/conflict-graph", 0x88c1384d5b2af166ULL},
    {"fft/all-miss", 0x1fe70f57e9078184ULL},
    {"fft/first-iteration-split", 0xfd31a0fdc25aac24ULL},
    {"fft/conflict-graph", 0x7e3a94a42a35d920ULL},
    {"piksrt/all-miss", 0x3069d3e23a9f0bc3ULL},
    {"piksrt/first-iteration-split", 0x40edcfba07307867ULL},
    {"piksrt/conflict-graph", 0x9289da4b647b4c5dULL},
    {"des/all-miss", 0x1fe70f57e9078184ULL},
    {"des/first-iteration-split", 0x2d7bc3cb8691eb2eULL},
    {"des/conflict-graph", 0x28a51c3c49309155ULL},
    {"line/all-miss", 0x56aaeefd8c42b8c9ULL},
    {"line/first-iteration-split", 0x381dae182377693aULL},
    {"line/conflict-graph", 0x20dbea8034382731ULL},
    {"circle/all-miss", 0x3069d3e23a9f0bc3ULL},
    {"circle/first-iteration-split", 0x1ed11b90f502c724ULL},
    {"circle/conflict-graph", 0x91ce847ee02b7d80ULL},
    {"jpeg_fdct_islow/all-miss", 0x1fe70f57e9078184ULL},
    {"jpeg_fdct_islow/first-iteration-split", 0x1fe70f57e9078184ULL},
    {"jpeg_fdct_islow/conflict-graph", 0xad9e9d873b3ac26bULL},
    {"jpeg_idct_islow/all-miss", 0xe873345162c17782ULL},
    {"jpeg_idct_islow/first-iteration-split", 0xe873345162c17782ULL},
    {"jpeg_idct_islow/conflict-graph", 0x4fa0e025007bf038ULL},
    {"recon/all-miss", 0x12e45b1c0b9bc990ULL},
    {"recon/first-iteration-split", 0x96c5cc639e45d623ULL},
    {"recon/conflict-graph", 0x7deade639b77fb2fULL},
    {"fullsearch/all-miss", 0x7fee05c39a35cc0aULL},
    {"fullsearch/first-iteration-split", 0x1ef7e4f8c1cd0a2eULL},
    {"fullsearch/conflict-graph", 0x84cc00bbd6530a55ULL},
    {"whetstone/all-miss", 0x1fe70f57e9078184ULL},
    {"whetstone/first-iteration-split", 0x6f882c229c880e3dULL},
    {"whetstone/conflict-graph", 0xd63ef9a2a85dcf2aULL},
    {"dhry/all-miss", 0x4069db4199cbc26fULL},
    {"dhry/first-iteration-split", 0xb9a5f04c726fc615ULL},
    {"dhry/conflict-graph", 0xbbcd7bdd3bb4f47fULL},
    {"matgen/all-miss", 0x1fe70f57e9078184ULL},
    {"matgen/first-iteration-split", 0x2b8b041f7b577663ULL},
    {"matgen/conflict-graph", 0x3879367d27d91be6ULL},
};

TEST(ObservedEstimate, GoldenIlpMetricsAcrossCacheModes) {
  test_util::Hashes actual;
  for (const suite::Benchmark& bench : suite::allBenchmarks()) {
    for (const ipet::CacheMode mode : test_util::kCacheModes) {
      tools::ToolOptions options;
      options.benchmark = bench.name;
      options.cacheMode = mode;
      const obs::JsonValue metrics = reportMetrics(options);
      const obs::JsonValue* counters = metrics.find("counters");
      test_util::Fnv hash;
      hash.i64(counters != nullptr ? counters->intOr("ilp.solves", -1) : -1);
      hashHistogram(metrics, "ilp.nodes", &hash);
      hashHistogram(metrics, "ilp.pivots", &hash);
      actual.emplace_back(bench.name + "/" + ipet::cacheModeStr(mode),
                          hash.state);
    }
  }
  test_util::expectPinned(actual, kIlpMetrics, "ILP metrics");
}


/// `value` as compact text, leaving out every member whose name ends in
/// ".micros" (wall-clock histograms).
std::string withoutTimings(const obs::JsonValue& value) {
  switch (value.kind) {
    case obs::JsonValue::Kind::Object: {
      std::string text = "{";
      for (const auto& [name, member] : value.members) {
        if (name.ends_with(".micros")) continue;
        text += name + ":" + withoutTimings(member) + ",";
      }
      return text + "}";
    }
    case obs::JsonValue::Kind::Array: {
      std::string text = "[";
      for (const obs::JsonValue& item : value.items) {
        text += withoutTimings(item) + ",";
      }
      return text + "]";
    }
    default:
      return std::to_string(value.intValue);
  }
}

TEST(ObservedEstimate, ReportMetricsMatchAcrossJobCounts) {
  // Everything in the report's metrics except wall-clock timings is a
  // function of the program, not of how many workers solved it.
  tools::ToolOptions options;
  options.benchmark = "dhry";
  options.cacheMode = ipet::CacheMode::ConflictGraph;
  options.jobs = 1;
  const std::string serial = withoutTimings(reportMetrics(options));
  options.jobs = 4;
  EXPECT_EQ(withoutTimings(reportMetrics(options)), serial);
  EXPECT_NE(serial.find("ilp.solves"), std::string::npos) << serial;
}

}  // namespace
}  // namespace cinderella
