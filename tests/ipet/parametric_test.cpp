// The parametric engine end to end: closed-form formulas must agree
// bit for bit with direct (parameter-bound) solves at every declared
// point, across degenerate ranges, multi-constraint parameters, and
// genuinely piecewise bounds; plus the service-level formula cache, its
// snapshot persistence and the sweep's solve counters in the result.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analysis.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/parametric.hpp"
#include "cinderella/ipet/solve_cache.hpp"
#include "cinderella/obs/metrics.hpp"
#include "cinderella/obs/report.hpp"
#include "cinderella/support/error.hpp"
#include "test_util/temp_path.hpp"

namespace cinderella::ipet {
namespace {

// One counted loop; the block starting on line 8 is the loop body, so
// "@8 <= @N" caps the body executions at the symbolic parameter N.
constexpr const char* kLoop =
    "int acc;\n"                                  // 1
    "void f() {\n"                                // 2
    "  int i;\n"                                  // 3
    "  i = 0;\n"                                  // 4
    "  acc = 0;\n"                                // 5
    "  while (i < 64) {\n"                        // 6
    "    __loopbound(0, 64);\n"                   // 7
    "    acc = acc + i;\n"                        // 8
    "    i = i + 1;\n"                            // 9
    "  }\n"                                       // 10
    "}\n";                                        // 11

// Two loops with differently costly bodies (lines 9 and 14); a shared
// budget "@9 + @14 <= @N" makes the worst case fill the expensive body
// first, so the bound has a genuine kink once that loop saturates.
constexpr const char* kTwoLoops =
    "int acc;\n"                                  // 1
    "void f() {\n"                                // 2
    "  int i;\n"                                  // 3
    "  int j;\n"                                  // 4
    "  i = 0;\n"                                  // 5
    "  j = 0;\n"                                  // 6
    "  while (i < 8) {\n"                         // 7
    "    __loopbound(0, 8);\n"                    // 8
    "    acc = acc + 1;\n"                        // 9
    "    i = i + 1;\n"                            // 10
    "  }\n"                                       // 11
    "  while (j < 8) {\n"                         // 12
    "    __loopbound(0, 8);\n"                    // 13
    "    acc = acc * acc + acc * acc + j;\n"      // 14
    "    j = j + 1;\n"                            // 15
    "  }\n"                                       // 16
    "}\n";                                        // 17

Analyzer makeAnalyzer(const codegen::CompileResult& compiled,
                      const std::vector<std::string>& constraints) {
  Analyzer analyzer(compiled, "f");
  for (const auto& text : constraints) analyzer.addConstraint(text);
  return analyzer;
}

/// The tentpole soundness property: formula evaluation == direct solve,
/// bit for bit, at every grid point of a (small) declared box.
void expectGridEquivalence(const codegen::CompileResult& compiled,
                           const std::vector<std::string>& constraints,
                           const WcetFormula& formula) {
  ASSERT_EQ(formula.params.size(), 1u);
  Analyzer direct = makeAnalyzer(compiled, constraints);
  for (std::int64_t v = formula.params[0].lo; v <= formula.params[0].hi; ++v) {
    direct.clearParamBindings();
    direct.bindParam(formula.params[0].name, v);
    const Interval bound = direct.estimate().bound;
    EXPECT_EQ(formula.evaluate({v}), bound)
        << formula.params[0].name << " = " << v;
  }
}

TEST(Parametric, SingleParameterAffineFormula) {
  const auto compiled = codegen::compileSource(kLoop);
  Analyzer analyzer = makeAnalyzer(compiled, {"@8 <= @N"});
  const ParametricResult result =
      solveParametric(analyzer, {{"N", 0, 64}});
  EXPECT_GE(result.stats.directSolves, 2);
  EXPECT_EQ(result.stats.pieces,
            static_cast<int>(result.formula.pieces.size()));
  expectGridEquivalence(compiled, {"@8 <= @N"}, result.formula);
}

TEST(Parametric, DegenerateRangeEqualsNonParametricSolve) {
  const auto compiled = codegen::compileSource(kLoop);
  Analyzer analyzer = makeAnalyzer(compiled, {"@8 <= @N"});
  const ParametricResult result =
      solveParametric(analyzer, {{"N", 7, 7}});
  ASSERT_EQ(result.formula.pieces.size(), 1u);

  Analyzer fixed = makeAnalyzer(compiled, {"@8 <= 7"});
  EXPECT_EQ(result.formula.evaluate({7}), fixed.estimate().bound);
  EXPECT_EQ(result.formula.hull(), fixed.estimate().bound);
}

TEST(Parametric, ParameterInMultipleConstraints) {
  const auto compiled = codegen::compileSource(kLoop);
  const std::vector<std::string> constraints = {"@8 <= @N", "x1 <= @N + 1"};
  Analyzer analyzer = makeAnalyzer(compiled, constraints);
  const ParametricResult result =
      solveParametric(analyzer, {{"N", 0, 16}});
  expectGridEquivalence(compiled, constraints, result.formula);
}

TEST(Parametric, SharedBudgetProducesAPiecewiseBound) {
  const auto compiled = codegen::compileSource(kTwoLoops);
  const std::vector<std::string> constraints = {"@9 + @14 <= @N"};
  Analyzer analyzer = makeAnalyzer(compiled, constraints);
  const ParametricResult result =
      solveParametric(analyzer, {{"N", 0, 16}});
  // Once the expensive loop saturates at 8 iterations, the worst-case
  // slope changes: the formula cannot be a single affine piece.
  EXPECT_GE(result.formula.pieces.size(), 2u);
  EXPECT_GE(result.stats.splits, 1);
  expectGridEquivalence(compiled, constraints, result.formula);
}

TEST(Parametric, EvaluationAtRegionBoundariesMatchesDirect) {
  const auto compiled = codegen::compileSource(kTwoLoops);
  Analyzer analyzer = makeAnalyzer(compiled, {"@9 + @14 <= @N"});
  const ParametricResult result =
      solveParametric(analyzer, {{"N", 0, 16}});
  for (const FormulaPiece& piece : result.formula.pieces) {
    for (const std::int64_t v : {piece.region.lo[0], piece.region.hi[0]}) {
      analyzer.clearParamBindings();
      analyzer.bindParam("N", v);
      EXPECT_EQ(result.formula.evaluate({v}), analyzer.estimate().bound)
          << "N = " << v;
    }
  }
}

TEST(Parametric, UnboundParameterMakesDirectEstimateThrow) {
  const auto compiled = codegen::compileSource(kLoop);
  Analyzer analyzer = makeAnalyzer(compiled, {"@8 <= @N"});
  EXPECT_THROW((void)analyzer.estimate(), AnalysisError);
  analyzer.bindParam("N", 5);
  EXPECT_NO_THROW((void)analyzer.estimate());
  analyzer.clearParamBindings();
  EXPECT_THROW((void)analyzer.estimate(), AnalysisError);
}

TEST(Parametric, FailedSolveLeavesNoBindingBehind) {
  // One direct solve cannot fit a formula over N = 0..64, so the engine
  // throws with a sample point bound; that binding must not survive.
  const auto compiled = codegen::compileSource(kLoop);
  Analyzer analyzer = makeAnalyzer(compiled, {"@8 <= @N"});
  ParametricOptions options;
  options.maxDirectSolves = 1;
  EXPECT_THROW((void)solveParametric(analyzer, {{"N", 0, 64}}, {}, options),
               AnalysisError);
  try {
    (void)analyzer.estimate();
    ADD_FAILURE() << "estimate() solved with a leftover binding";
  } catch (const AnalysisError& e) {
    EXPECT_NE(std::string(e.what()).find("unbound parameter '@N'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Parametric, RejectsInvalidDeclarations) {
  const auto compiled = codegen::compileSource(kLoop);
  Analyzer analyzer = makeAnalyzer(compiled, {"@8 <= @N"});
  // Empty declaration list.
  EXPECT_THROW((void)solveParametric(analyzer, {}), AnalysisError);
  // The referenced parameter is not declared.
  EXPECT_THROW((void)solveParametric(analyzer, {{"M", 0, 4}}),
               AnalysisError);
  // Duplicate declaration.
  EXPECT_THROW(
      (void)solveParametric(analyzer, {{"N", 0, 4}, {"N", 1, 2}}),
      AnalysisError);
  // Inverted range.
  EXPECT_THROW((void)solveParametric(analyzer, {{"N", 5, 2}}),
               AnalysisError);
}

TEST(Parametric, ParametricDigestSeparatesRangesAndValues) {
  const auto compiled = codegen::compileSource(kLoop);
  Analyzer a = makeAnalyzer(compiled, {"@8 <= @N"});
  Analyzer b = makeAnalyzer(compiled, {"@8 <= @N"});
  EXPECT_EQ(a.parametricDigest({{"N", 0, 64}}), b.parametricDigest({{"N", 0, 64}}));
  EXPECT_NE(a.parametricDigest({{"N", 0, 64}}), a.parametricDigest({{"N", 0, 32}}));
  // Binding a value must not change the parametric digest: the digest
  // names the symbolic system, not any concrete instantiation.
  b.bindParam("N", 3);
  EXPECT_EQ(a.parametricDigest({{"N", 0, 64}}), b.parametricDigest({{"N", 0, 64}}));
}

TEST(Parametric, GoldenParametricDigestOfTheReadmeLoop) {
  // The key README quotes for `--constraint "@8 <= @N" --param N=0..64`
  // and the serve "evaluate" op takes.  A cached formula is addressed by
  // these bytes, so see digest_test.cpp before re-pinning.
  const auto compiled = codegen::compileSource(kLoop);
  Analyzer analyzer = makeAnalyzer(compiled, {"@8 <= @N"});
  EXPECT_EQ(analyzer.parametricDigest({{"N", 0, 64}}).hex(),
            "944aeafcde117b1dfb926fed20cf1946");
}

AnalysisRequest parametricRequest() {
  AnalysisRequest request;
  request.label = "ploop";
  request.source = kLoop;
  request.root = "f";
  request.constraints.push_back({"@8 <= @N", ""});
  request.parameters = {{"N", 0, 16}};
  return request;
}

TEST(Parametric, ServiceCachesTheFormula) {
  AnalysisService service;
  const AnalysisResult cold = service.analyze(parametricRequest());
  ASSERT_TRUE(cold.formula.has_value());
  EXPECT_FALSE(cold.cacheHit);
  EXPECT_EQ(cold.estimate.bound, cold.formula->hull());

  const AnalysisResult warm = service.analyze(parametricRequest());
  ASSERT_TRUE(warm.formula.has_value());
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(*warm.formula, *cold.formula);
  EXPECT_EQ(warm.fullDigest, cold.fullDigest);
  EXPECT_GE(service.cache().stats().formulaHits, 1);
}

TEST(Parametric, ServiceResultCarriesTheSweepsSolves) {
  // A solved parametric request reports the sweep behind its formula:
  // every direct solve's set records, with the stats tallied over them,
  // so --report-json's stats and ilp.* metrics show the work done.
  const auto compiled = codegen::compileSource(kLoop);
  Analyzer analyzer = makeAnalyzer(compiled, {"@8 <= @N"});
  const ParametricResult sweep = solveParametric(analyzer, {{"N", 0, 16}});
  ASSERT_GT(sweep.stats.directSolves, 1);
  analyzer.bindParam("N", 0);
  const Estimate point = analyzer.estimate();

  AnalysisService service;
  const AnalysisResult cold = service.analyze(parametricRequest());
  const Estimate& estimate = cold.estimate;
  EXPECT_EQ(estimate.stats.constraintSets,
            sweep.stats.directSolves * point.stats.constraintSets);
  EXPECT_EQ(estimate.stats.ilpSolves,
            sweep.stats.directSolves * point.stats.ilpSolves);
  EXPECT_EQ(estimate.setRecords.size(),
            static_cast<std::size_t>(estimate.stats.constraintSets));
  int lpCalls = 0;
  for (const SetSolveRecord& record : estimate.setRecords) {
    lpCalls += record.worst.lpCalls + record.best.lpCalls;
  }
  EXPECT_EQ(estimate.stats.lpCalls, lpCalls);
  obs::MetricsRegistry metrics;
  obs::addEstimateMetrics(estimate, &metrics);
  EXPECT_EQ(metrics.counter("ilp.solves").value(), estimate.stats.ilpSolves);

  // A hit carries the formula, not the sweep: it solved nothing.
  const AnalysisResult warm = service.analyze(parametricRequest());
  ASSERT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.estimate.stats.ilpSolves, 0);
  EXPECT_TRUE(warm.estimate.setRecords.empty());
}

TEST(Parametric, ServiceHonoursCachePolicy) {
  AnalysisService service;
  AnalysisRequest request = parametricRequest();
  request.cachePolicy = CachePolicy::ReadOnly;
  const AnalysisResult first = service.analyze(request);
  EXPECT_FALSE(first.cacheHit);
  EXPECT_EQ(service.cache().formulaEntries(), 0u);

  request.cachePolicy = CachePolicy::ReadWrite;
  const AnalysisResult stored = service.analyze(request);
  EXPECT_FALSE(stored.cacheHit);
  EXPECT_EQ(service.cache().formulaEntries(), 1u);

  request.cachePolicy = CachePolicy::Bypass;
  const AnalysisResult bypass = service.analyze(request);
  EXPECT_FALSE(bypass.cacheHit);
  EXPECT_EQ(*bypass.formula, *stored.formula);
}

TEST(Parametric, RejectsLpInputWithParameters) {
  AnalysisService service;
  AnalysisRequest request;
  request.source = "Maximize\n obj: x0\nSubject To\n c0: x0 <= 1\nEnd\n";
  request.lpInput = true;
  request.parameters = {{"N", 0, 4}};
  EXPECT_THROW((void)service.analyze(request), AnalysisError);
}

TEST(Parametric, FormulaSurvivesASnapshotRoundTrip) {
  const std::string path =
      test_util::uniqueTempPath("parametric_formula_snapshot.bin");
  Digest digest;
  WcetFormula formula;
  {
    AnalysisService service;
    const AnalysisResult cold = service.analyze(parametricRequest());
    ASSERT_TRUE(cold.formula.has_value());
    digest = cold.fullDigest;
    formula = *cold.formula;
    std::string error;
    ASSERT_TRUE(service.cache().save(path, &error)) << error;
  }
  SolveCache restored;
  std::string error;
  ASSERT_TRUE(restored.load(path, &error)) << error;
  EXPECT_EQ(restored.formulaEntries(), 1u);
  const auto entry = restored.lookupFormula(digest);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->formula, formula);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cinderella::ipet
