// End-to-end observability: tracing a real estimate() run, the
// per-set solve records and their sum-equals-stats invariant, the JSON
// report, and determinism of everything non-temporal across thread
// counts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/parametric.hpp"
#include "cinderella/obs/json.hpp"
#include "cinderella/obs/metrics.hpp"
#include "cinderella/obs/report.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/tools/tool.hpp"
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
    for (const auto [ia, ib] : {std::pair{&ra.worst, &rb.worst},
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
  obs::MetricsRegistry metrics;
  ipet::Estimate estimate;
  {
    obs::ScopedMetricsSink scoped(&metrics);
    estimate = prep.analyzer.estimate();
  }
  const std::string json =
      obs::reportJson("check_data", estimate, &metrics, {});
  EXPECT_EQ(obs::jsonLint(json), "") << json;
  EXPECT_NE(json.find("\"program\":\"check_data\""), std::string::npos);
  EXPECT_NE(json.find("\"bound\""), std::string::npos);
  EXPECT_NE(json.find("\"sets\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"lp.solves\""), std::string::npos);
  EXPECT_NE(json.find("\"ilp.solves\""), std::string::npos);
  // The registry saw exactly the run's ILP count.
  EXPECT_EQ(metrics.counter("ilp.solves").value(), estimate.stats.ilpSolves);

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

}  // namespace
}  // namespace cinderella
