// Parametric equivalence over the Table-I suite: a closed-form
// WcetFormula must price every sampled parameter assignment to exactly
// the interval a direct (parameter-bound) solve produces — bit for bit,
// for every benchmark and across the three analyzer cache modes.
//
// These run in CI's parametric-equivalence job next to a 200-seed fuzz
// sweep whose oracle replays the same check on random programs.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analysis.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/parametric.hpp"
#include "cinderella/suite/suite.hpp"

namespace cinderella {
namespace {

/// The redundant parametric budget attached to every benchmark: the
/// root entry block executes exactly once, so `x0 <= 3 * @P` never cuts
/// the feasible region for P in [1, 3] — but it forces the whole
/// parametric stack (parser, RHS folding, engine, formula evaluation)
/// through the same system the direct solves see.
constexpr const char* kBudget = "x0 <= 3 * @P";
const std::vector<ipet::ParamDecl> kParams = {{"P", 1, 3}};

ipet::Analyzer makeAnalyzer(const codegen::CompileResult& compiled,
                            const suite::Benchmark& bench,
                            ipet::CacheMode mode) {
  ipet::AnalyzerOptions aopt;
  aopt.cacheMode = mode;
  ipet::Analyzer analyzer(compiled, bench.rootFunction, aopt);
  for (const auto& c : bench.constraints) {
    analyzer.addConstraint(c.text, c.scope);
  }
  analyzer.addConstraint(kBudget);
  return analyzer;
}

void expectFormulaMatchesDirect(const suite::Benchmark& bench,
                                ipet::CacheMode mode) {
  const auto compiled = codegen::compileSource(bench.source);
  ipet::Analyzer analyzer = makeAnalyzer(compiled, bench, mode);
  const ipet::ParametricResult parametric =
      ipet::solveParametric(analyzer, kParams);
  for (std::int64_t p = kParams[0].lo; p <= kParams[0].hi; ++p) {
    analyzer.clearParamBindings();
    analyzer.bindParam("P", p);
    const ipet::Interval direct = analyzer.estimate().bound;
    EXPECT_EQ(parametric.formula.evaluate({p}), direct) << "P = " << p;
  }
}

TEST(ParametricEquivalence, SuiteFormulaMatchesDirectAllMiss) {
  for (const auto& bench : suite::allBenchmarks()) {
    SCOPED_TRACE(bench.name);
    expectFormulaMatchesDirect(bench, ipet::CacheMode::AllMiss);
  }
}

TEST(ParametricEquivalence, CacheModesAgreeOnASubset) {
  for (const char* name : {"check_data", "piksrt", "circle"}) {
    for (const ipet::CacheMode mode :
         {ipet::CacheMode::FirstIterationSplit,
          ipet::CacheMode::ConflictGraph}) {
      SCOPED_TRACE(std::string(name) + "/" + ipet::cacheModeStr(mode));
      expectFormulaMatchesDirect(suite::benchmarkByName(name), mode);
    }
  }
}

TEST(ParametricEquivalence, ServiceFormulaDigestIsStableAcrossRequests) {
  // The whole request-level path: same parametric request twice through
  // one service must hit the formula cache and reprice identically; a
  // different declared range must be a different content address.
  ipet::AnalysisServiceOptions options;
  options.benchmarkResolver = suite::benchmarkResolver();
  ipet::AnalysisService service(std::move(options));
  ipet::AnalysisRequest request;
  request.benchmark = "piksrt";
  request.constraints.push_back({kBudget, ""});
  request.parameters = kParams;

  const ipet::AnalysisResult cold = service.analyze(request);
  ASSERT_TRUE(cold.formula.has_value());
  const ipet::AnalysisResult warm = service.analyze(request);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(*warm.formula, *cold.formula);
  EXPECT_EQ(warm.fullDigest, cold.fullDigest);

  request.parameters = {{"P", 1, 2}};
  const ipet::AnalysisResult narrower = service.analyze(request);
  EXPECT_FALSE(narrower.cacheHit);
  EXPECT_NE(narrower.fullDigest, cold.fullDigest);
}

}  // namespace
}  // namespace cinderella
