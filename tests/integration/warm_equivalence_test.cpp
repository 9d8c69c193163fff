// Warm/cold equivalence: each constraint set's probe and both root
// relaxations run on one live tableau, each phase continuing from the
// previous basis (lp::LiveTableau).  That is purely a performance
// choice: every set's bounds must equal those of solving its worst-case
// and best-case ILP cold with ilp::solve, for every suite benchmark,
// every cache mode and several thread counts, and injected faults must
// keep the estimate sound.
//
// These run in CI's equivalence job next to BoundGolden and a 500-seed
// fuzz sweep.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/fault_injector.hpp"
#include "test_util/root_systems.hpp"

namespace cinderella {
namespace {

using support::FaultInjector;
using support::FaultPlan;
using support::ScopedFaultInjector;

ipet::Analyzer makeAnalyzer(const codegen::CompileResult& compiled,
                            const suite::Benchmark& bench,
                            ipet::CacheMode mode) {
  ipet::AnalyzerOptions aopt;
  aopt.cacheMode = mode;
  ipet::Analyzer analyzer(compiled, bench.rootFunction, aopt);
  for (const auto& c : bench.constraints) {
    analyzer.addConstraint(c.text, c.scope);
  }
  return analyzer;
}

ipet::Estimate estimateBenchmark(const suite::Benchmark& bench,
                                 ipet::CacheMode mode, int threads = 1) {
  const auto compiled = codegen::compileSource(bench.source);
  const ipet::Analyzer analyzer = makeAnalyzer(compiled, bench, mode);
  ipet::SolveControl control;
  control.threads = threads;
  return analyzer.estimate(control);
}

/// Each set's verdict and both objectives match a cold ilp::solve of its
/// exported worst-case and best-case ILP.
void expectColdBounds(const ipet::Analyzer& analyzer,
                      const ipet::Estimate& warm) {
  const auto best = test_util::bestCosts(analyzer);
  std::vector<lp::Problem> systems = test_util::exportedSystems(analyzer);
  ASSERT_EQ(systems.size(), warm.setRecords.size());
  for (std::size_t i = 0; i < systems.size(); ++i) {
    SCOPED_TRACE(i);
    const ipet::SetSolveRecord& rec = warm.setRecords[i];
    if (rec.sharedWith >= 0) continue;  // solved via its representative
    lp::Problem& p = systems[i];
    const ilp::IlpSolution worst = ilp::solve(p);
    p.setObjective(test_util::bestObjective(p, best), lp::Sense::Minimize);
    const ilp::IlpSolution bestIlp = ilp::solve(p);
    const bool coldFeasible = worst.status == ilp::IlpStatus::Optimal;
    EXPECT_EQ(rec.verdict, ipet::SetVerdict::Exact);
    if (rec.pruned) {
      EXPECT_FALSE(coldFeasible);
      continue;
    }
    ASSERT_EQ(rec.worst.feasible, coldFeasible);
    ASSERT_EQ(rec.best.feasible, bestIlp.status == ilp::IlpStatus::Optimal);
    if (!coldFeasible) continue;
    EXPECT_EQ(rec.worst.objective, worst.objectiveExact);
    EXPECT_EQ(rec.best.objective, bestIlp.objectiveExact);
  }
}

TEST(WarmEquivalence, SuiteBitIdenticalAcrossCacheModes) {
  for (const auto& bench : suite::allBenchmarks()) {
    const auto compiled = codegen::compileSource(bench.source);
    for (const ipet::CacheMode mode : test_util::kCacheModes) {
      SCOPED_TRACE(bench.name + "/" + ipet::cacheModeStr(mode));
      const ipet::Analyzer analyzer = makeAnalyzer(compiled, bench, mode);
      expectColdBounds(analyzer, analyzer.estimate());
    }
  }
}

TEST(WarmEquivalence, MultiThreadedWarmMatchesCold) {
  const suite::Benchmark& bench = suite::benchmarkByName("dhry");
  const auto compiled = codegen::compileSource(bench.source);
  const ipet::Analyzer analyzer =
      makeAnalyzer(compiled, bench, ipet::CacheMode::AllMiss);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ipet::SolveControl control;
    control.threads = threads;
    expectColdBounds(analyzer, analyzer.estimate(control));
  }
}

TEST(WarmEquivalence, InjectedFaultsStaySoundWarm) {
  // A fault in a live phase sends that side to the from-scratch ladder,
  // and a fault there walks the degradation ladder: the estimate never
  // throws, and any sound result encloses the exact interval.
  const suite::Benchmark& bench = suite::benchmarkByName("check_data");
  const ipet::Estimate exact =
      estimateBenchmark(bench, ipet::CacheMode::AllMiss);

  for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    SCOPED_TRACE(seed);
    FaultPlan plan;
    plan.seed = seed;
    plan.lpPivotRate = 0.02;
    FaultInjector injector{plan};
    ScopedFaultInjector install(&injector);

    ipet::Estimate degraded;
    ASSERT_NO_THROW(degraded =
                        estimateBenchmark(bench, ipet::CacheMode::AllMiss));
    if (degraded.sound()) {
      EXPECT_TRUE(degraded.bound.encloses(exact.bound));
    }
  }
}

}  // namespace
}  // namespace cinderella
