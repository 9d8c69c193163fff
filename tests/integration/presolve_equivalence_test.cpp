// Presolve equivalence: the LP reduction engine (SolveControl::presolve
// — singleton substitution, bound propagation, fixed-variable
// elimination, redundant-row removal) is a pure performance feature.
// Bounds must be bit-identical with it on or off, for every suite
// benchmark, every cache mode, several thread counts, and under
// injected faults.
//
// These run in CI's equivalence job next to a 500-seed fuzz sweep whose
// oracle re-solves every generated program with presolve off.
#include <gtest/gtest.h>

#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/fault_injector.hpp"

namespace cinderella {
namespace {

using support::FaultInjector;
using support::FaultPlan;
using support::ScopedFaultInjector;

ipet::Estimate estimateBenchmark(const suite::Benchmark& bench,
                                 ipet::CacheMode mode, bool presolve,
                                 int threads = 1) {
  const auto compiled = codegen::compileSource(bench.source);
  ipet::AnalyzerOptions aopt;
  aopt.cacheMode = mode;
  ipet::Analyzer analyzer(compiled, bench.rootFunction, aopt);
  for (const auto& c : bench.constraints) {
    analyzer.addConstraint(c.text, c.scope);
  }
  ipet::SolveControl control;
  control.presolve = presolve;
  control.threads = threads;
  return analyzer.estimate(control);
}

/// Bit-identity of everything the solve *means*: the merged interval
/// and, per set, the pruned flag and both objectives.  (Solver-effort
/// stats — pivots, presolve tallies — legitimately differ.)
void expectSameBounds(const ipet::Estimate& on, const ipet::Estimate& off) {
  EXPECT_EQ(on.bound, off.bound);
  EXPECT_EQ(on.sound(), off.sound());
  ASSERT_EQ(on.setRecords.size(), off.setRecords.size());
  for (std::size_t i = 0; i < on.setRecords.size(); ++i) {
    SCOPED_TRACE(i);
    const ipet::SetSolveRecord& a = on.setRecords[i];
    const ipet::SetSolveRecord& b = off.setRecords[i];
    EXPECT_EQ(a.pruned, b.pruned);
    if (a.sharedWith >= 0) continue;  // solved via its representative
    EXPECT_EQ(a.worst.feasible, b.worst.feasible);
    EXPECT_EQ(a.best.feasible, b.best.feasible);
    if (a.worst.feasible && b.worst.feasible) {
      EXPECT_EQ(a.worst.objective, b.worst.objective);
    }
    if (a.best.feasible && b.best.feasible) {
      EXPECT_EQ(a.best.objective, b.best.objective);
    }
  }
}

TEST(PresolveEquivalence, SuiteBitIdenticalAcrossCacheModes) {
  for (const auto& bench : suite::allBenchmarks()) {
    for (const ipet::CacheMode mode :
         {ipet::CacheMode::AllMiss, ipet::CacheMode::FirstIterationSplit,
          ipet::CacheMode::ConflictGraph}) {
      SCOPED_TRACE(bench.name + "/" + ipet::cacheModeStr(mode));
      const ipet::Estimate on = estimateBenchmark(bench, mode, true);
      const ipet::Estimate off = estimateBenchmark(bench, mode, false);
      expectSameBounds(on, off);
      // The engine must actually engage: IPET systems are built from
      // flow-conservation equalities, which presolve substitutes away
      // on every benchmark.
      EXPECT_GT(on.stats.presolveRowsRemoved, 0);
      EXPECT_GT(on.stats.presolveSubstitutions + on.stats.presolveColsFixed,
                0);
      EXPECT_EQ(off.stats.presolveRowsRemoved, 0);
      EXPECT_EQ(off.stats.presolveColsFixed, 0);
      EXPECT_EQ(off.stats.presolveSubstitutions, 0);
      // No per-combination pivot assertion: the aggregate payoff is
      // gated by bench_presolve.
    }
  }
}

TEST(PresolveEquivalence, MultiThreadedPresolveMatchesOff) {
  const suite::Benchmark& bench = suite::benchmarkByName("dhry");
  const ipet::Estimate off =
      estimateBenchmark(bench, ipet::CacheMode::AllMiss, false);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const ipet::Estimate on =
        estimateBenchmark(bench, ipet::CacheMode::AllMiss, true, threads);
    expectSameBounds(on, off);
  }
}

TEST(PresolveEquivalence, InjectedFaultsStaySoundWithPresolve) {
  // Faults land at different pivots with presolve on vs off (the pivot
  // streams differ), so exact equality is not expected — but the
  // reduced solves must degrade exactly as gracefully: never throw, and
  // any sound result encloses the exact interval.
  const suite::Benchmark& bench = suite::benchmarkByName("check_data");
  const ipet::Estimate exact =
      estimateBenchmark(bench, ipet::CacheMode::AllMiss, true);

  for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    SCOPED_TRACE(seed);
    FaultPlan plan;
    plan.seed = seed;
    // Presolve leaves only a handful of pivots on this benchmark; a
    // high rate keeps the drill firing.
    plan.lpPivotRate = 0.5;
    FaultInjector injector{plan};
    ScopedFaultInjector install(&injector);

    ipet::Estimate degraded;
    ASSERT_NO_THROW(degraded = estimateBenchmark(
                        bench, ipet::CacheMode::AllMiss, true));
    if (degraded.sound()) {
      EXPECT_TRUE(degraded.bound.encloses(exact.bound));
    }
  }
}

}  // namespace
}  // namespace cinderella
