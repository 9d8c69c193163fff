// Fault-tolerance integration tests: under injected faults (simplex
// pivot failures, lost thread-pool tasks, spurious deadline expiry) the
// solve engine must degrade per constraint set to sound fallback bounds
// instead of aborting, and a sound degraded interval must enclose both
// the exact interval and the simulator's measurements.
//
// These run under ThreadSanitizer in CI (filter Degraded*) alongside
// the ParallelEstimate tests: the degradation paths share state across
// workers (structural fallback, issue lists) and must stay race-free.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/sim/simulator.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"
#include "test_util/root_systems.hpp"

namespace cinderella {
namespace {

using support::FaultInjector;
using support::FaultPlan;
using support::FaultSite;
using support::ScopedFaultInjector;

struct Prepared {
  explicit Prepared(const std::string& name, ipet::AnalyzerOptions options = {})
      : bench(suite::benchmarkByName(name)),
        compiled(codegen::compileSource(bench.source)),
        analyzer(compiled, bench.rootFunction, options) {
    for (const auto& c : bench.constraints) {
      analyzer.addConstraint(c.text, c.scope);
    }
  }

  const suite::Benchmark& bench;
  codegen::CompileResult compiled;
  ipet::Analyzer analyzer;
};

int degradedRecords(const ipet::Estimate& estimate) {
  int count = 0;
  for (const ipet::SetSolveRecord& rec : estimate.setRecords) {
    if (!rec.pruned && rec.verdict != ipet::SetVerdict::Exact) ++count;
  }
  return count;
}

TEST(DegradedEstimate, InjectedPivotFaultsStaySoundAndBracketSimulation) {
  // Deterministic single-thread drill: with pivot faults injected, some
  // ILPs abort mid-solve and fall back to relaxation or structural
  // bounds.  Whenever the result still claims soundness, it must
  // enclose the exact interval and every simulator measurement.  The
  // rate is high because presolve leaves only a handful of pivots on
  // this benchmark — at 2% the drill would never fire.
  Prepared prep("check_data");
  const ipet::Estimate exact = prep.analyzer.estimate();

  FaultPlan plan;
  plan.seed = 3;
  plan.lpPivotRate = 0.9;
  FaultInjector injector{plan};
  ScopedFaultInjector install(&injector);

  ipet::SolveControl control;
  control.threads = 1;
  const ipet::Estimate degraded = prep.analyzer.estimate(control);

  EXPECT_GT(injector.injected(FaultSite::LpPivot), 0);
  EXPECT_FALSE(degraded.issues.empty());
  EXPECT_GT(degradedRecords(degraded), 0);
  if (degraded.sound()) {
    EXPECT_TRUE(degraded.bound.encloses(exact.bound));

    sim::Simulator simulator(prep.compiled.module);
    const int fn =
        *prep.compiled.module.findFunction(prep.bench.rootFunction);
    sim::SimOptions worstRun;
    worstRun.patches = prep.bench.worstData;
    const sim::SimResult worst = simulator.run(fn, {}, worstRun);
    EXPECT_LE(worst.cycles, degraded.bound.hi);
    EXPECT_GE(worst.cycles, degraded.bound.lo);
  }
}

TEST(DegradedEstimate, LostTasksDegradeToStructuralBounds) {
  // Every per-set solve task is dropped by the pool: the merge must
  // notice the unstarted sets and degrade each to the shared structural
  // bound with a task-lost issue, never hanging or throwing.
  Prepared prep("check_data");
  const ipet::Estimate exact = prep.analyzer.estimate();

  FaultPlan plan;
  plan.threadTaskRate = 1.0;
  FaultInjector injector{plan};
  ScopedFaultInjector install(&injector);

  ipet::SolveControl control;
  control.threads = 2;
  const ipet::Estimate degraded = prep.analyzer.estimate(control);

  EXPECT_TRUE(degraded.sound());
  EXPECT_TRUE(degraded.bound.encloses(exact.bound));
  EXPECT_FALSE(degraded.issues.empty());
  for (const ipet::SolveIssue& issue : degraded.issues) {
    EXPECT_EQ(issue.code, ErrorCode::TaskLost);
  }
  for (const ipet::SetSolveRecord& rec : degraded.setRecords) {
    EXPECT_EQ(rec.verdict, ipet::SetVerdict::Structural);
  }
  EXPECT_FALSE(degraded.timedOut);
}

TEST(DegradedEstimate, InjectedDeadlinePreservesCompletedSets) {
  // A flaky deadline clock (30% spurious expiry) stops the run partway:
  // sets solved before the first trip keep their exact bounds, later
  // ones degrade, and the whole result is flagged timed out yet sound.
  Prepared prep("dhry");
  const ipet::Estimate exact = prep.analyzer.estimate();

  FaultPlan plan;
  plan.seed = 2;
  plan.deadlineClockRate = 0.3;
  FaultInjector injector{plan};
  ScopedFaultInjector install(&injector);

  ipet::SolveControl control;
  control.threads = 1;
  const ipet::Estimate degraded = prep.analyzer.estimate(control);

  EXPECT_TRUE(degraded.timedOut);
  EXPECT_TRUE(degraded.sound());
  EXPECT_TRUE(degraded.bound.encloses(exact.bound));
  EXPECT_GT(degradedRecords(degraded), 0);
  // Sets solved before the clock tripped keep their exact verdicts —
  // completed work is never discarded.
  int exactRecords = 0;
  for (const ipet::SetSolveRecord& rec : degraded.setRecords) {
    if (!rec.pruned && rec.verdict == ipet::SetVerdict::Exact) ++exactRecords;
  }
  EXPECT_GT(exactRecords, 0);
  for (const ipet::SolveIssue& issue : degraded.issues) {
    EXPECT_EQ(issue.code, ErrorCode::DeadlineExpired);
  }
}

TEST(DegradedEstimate, ChaosDrillNeverThrows) {
  // All three sites fault at once across several seeds and thread
  // counts; estimate() must always return, and any sound result must
  // enclose the exact interval.
  Prepared prep("check_data");
  const ipet::Estimate exact = prep.analyzer.estimate();

  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    SCOPED_TRACE(seed);
    FaultPlan plan;
    plan.seed = seed;
    plan.lpPivotRate = 0.05;
    plan.threadTaskRate = 0.2;
    plan.deadlineClockRate = 0.05;
    FaultInjector injector{plan};
    ScopedFaultInjector install(&injector);

    ipet::SolveControl control;
    control.threads = 2;
    ipet::Estimate degraded;
    ASSERT_NO_THROW(degraded = prep.analyzer.estimate(control));
    if (degraded.sound()) {
      EXPECT_TRUE(degraded.bound.encloses(exact.bound));
    }
  }
}

TEST(DegradedEstimate, ZeroRateInjectorChangesNothing) {
  // An installed injector with all rates at zero must leave the result
  // bit-identical to a clean run: the seam itself has no side effects.
  Prepared prep("dhry");
  const ipet::Estimate clean = prep.analyzer.estimate();

  FaultInjector injector{FaultPlan{}};
  ScopedFaultInjector install(&injector);
  const ipet::Estimate observed = prep.analyzer.estimate();

  EXPECT_EQ(observed.bound, clean.bound);
  EXPECT_EQ(observed.stats.ilpSolves, clean.stats.ilpSolves);
  EXPECT_EQ(observed.stats.totalPivots, clean.stats.totalPivots);
  EXPECT_EQ(observed.stats.relaxedSets, 0);
  EXPECT_EQ(observed.stats.structuralSets, 0);
  EXPECT_EQ(observed.stats.failedSets, 0);
  EXPECT_FALSE(observed.timedOut);
  EXPECT_TRUE(observed.issues.empty());
}

TEST(DegradedEstimate, FaultedRunsReplayFromTheSeed) {
  // Same plan, single thread: two degraded runs must agree exactly —
  // the whole degradation pipeline is deterministic in the seed.
  Prepared prepA("check_data");
  Prepared prepB("check_data");

  const auto run = [](Prepared& prep) {
    FaultPlan plan;
    plan.seed = 11;
    plan.lpPivotRate = 0.03;
    FaultInjector injector{plan};
    ScopedFaultInjector install(&injector);
    ipet::SolveControl control;
    control.threads = 1;
    return prep.analyzer.estimate(control);
  };
  const ipet::Estimate a = run(prepA);
  const ipet::Estimate b = run(prepB);
  EXPECT_EQ(a.bound, b.bound);
  EXPECT_EQ(a.issues.size(), b.issues.size());
  ASSERT_EQ(a.setRecords.size(), b.setRecords.size());
  for (std::size_t i = 0; i < a.setRecords.size(); ++i) {
    EXPECT_EQ(a.setRecords[i].verdict, b.setRecords[i].verdict);
    EXPECT_EQ(a.setRecords[i].issue, b.setRecords[i].issue);
  }
}

TEST(DegradedEstimate, MemoryCeilingChargesTheSparseTableau) {
  // whetstone/ccg has 1,129 rows over 1,548 variables.  Its sparse
  // tableau holds a few hundred KB, so a 32 MiB ceiling leaves the solve
  // exact; a dense (rows+1)*(cols+1) tableau would have been charged
  // 48 MB.  A 1 KiB ceiling still degrades it to the structural bound.
  ipet::AnalyzerOptions options;
  options.cacheMode = ipet::CacheMode::ConflictGraph;
  Prepared prep("whetstone", options);
  const ipet::Estimate unlimited = prep.analyzer.estimate();

  ipet::SolveControl control;
  control.maxMemoryBytes = std::size_t{32} << 20;
  const ipet::Estimate roomy = prep.analyzer.estimate(control);
  EXPECT_EQ(roomy.bound, unlimited.bound);
  EXPECT_TRUE(roomy.issues.empty());
  for (const ipet::SetSolveRecord& rec : roomy.setRecords) {
    EXPECT_EQ(rec.verdict, ipet::SetVerdict::Exact);
  }

  control.maxMemoryBytes = 1024;
  const ipet::Estimate tight = prep.analyzer.estimate(control);
  EXPECT_TRUE(tight.sound());
  EXPECT_TRUE(tight.bound.encloses(unlimited.bound));
  EXPECT_NE(tight.bound, unlimited.bound);
  ASSERT_FALSE(tight.issues.empty());
  for (const ipet::SolveIssue& issue : tight.issues) {
    EXPECT_EQ(issue.code, ErrorCode::MemoryCeiling);
  }
  for (const ipet::SetSolveRecord& rec : tight.setRecords) {
    EXPECT_EQ(rec.verdict, ipet::SetVerdict::Structural);
  }
}

/// Every deterministic field of a degraded estimate: the interval,
/// timedOut and every stat; per set record the ladder outcome (verdict,
/// issue, each side's degraded/fallbackBound), the plan (pruned,
/// sharedWith, dominated) and every counter; every issue in full.
/// Wall-clock fields are left out.
std::uint64_t ladderHash(const ipet::Estimate& e) {
  test_util::Fnv h;
  h.i64(e.bound.lo);
  h.i64(e.bound.hi);
  h.i64(e.timedOut);
  const ipet::SolveStats& st = e.stats;
  for (const int v :
       {st.constraintSets, st.prunedNullSets, st.ilpSolves, st.lpCalls,
        st.nodesExpanded, static_cast<int>(st.allFirstRelaxationsIntegral),
        st.totalPivots, st.cacheFlowVars, st.cacheFallbackSets,
        st.relaxedSets, st.structuralSets, st.failedSets,
        st.checkedPromotions, st.blandRestarts, st.dedupedSets,
        st.dominatedSets, st.devexPivots, st.presolveRowsRemoved,
        st.presolveColsFixed, st.presolveSubstitutions, st.presolveRounds}) {
    h.i64(v);
  }
  h.u64(e.setRecords.size());
  for (const ipet::SetSolveRecord& r : e.setRecords) {
    for (const int v :
         {r.setIndex, r.userConstraints, r.sharedWith,
          static_cast<int>(r.dominated), static_cast<int>(r.pruned),
          r.probePivots, static_cast<int>(r.verdict),
          static_cast<int>(r.issue), r.fallbackPivots}) {
      h.i64(v);
    }
    for (const ipet::IlpSolveRecord* side : {&r.worst, &r.best}) {
      for (const std::int64_t v :
           {std::int64_t{side->solved}, std::int64_t{side->feasible},
            side->objective, std::int64_t{side->nodes},
            std::int64_t{side->lpCalls}, std::int64_t{side->pivots},
            std::int64_t{side->devexPivots}, std::int64_t{side->degraded},
            side->fallbackBound}) {
        h.i64(v);
      }
    }
  }
  for (const auto* counts : {&e.worstCounts, &e.bestCounts}) {
    h.u64(counts->size());
    for (const ipet::BlockCountRow& row : *counts) {
      h.i64(row.function);
      h.i64(row.block);
      h.i64(row.count);
    }
  }
  h.u64(e.issues.size());
  for (const ipet::SolveIssue& issue : e.issues) {
    h.i64(issue.setIndex);
    h.i64(static_cast<int>(issue.code));
    h.str(issue.phase);
    h.str(issue.detail);
  }
  return h.state;
}

/// One entry per program and cache mode: the ladder hashes of
/// single-thread estimates under each of `plans`, folded in order.
test_util::Hashes ladderHashes(std::initializer_list<FaultPlan> plans) {
  test_util::Hashes actual;
  for (const char* name : {"check_data", "dhry", "whetstone"}) {
    for (const ipet::CacheMode mode : test_util::kCacheModes) {
      ipet::AnalyzerOptions options;
      options.cacheMode = mode;
      Prepared prep(name, options);
      test_util::Fnv folded;
      for (const FaultPlan& plan : plans) {
        FaultInjector injector{plan};
        ScopedFaultInjector install(&injector);
        ipet::SolveControl control;
        control.threads = 1;
        folded.u64(ladderHash(prep.analyzer.estimate(control)));
      }
      actual.emplace_back(std::string(name) + "/" + ipet::cacheModeStr(mode),
                          folded.state);
    }
  }
  return actual;
}

FaultPlan pivotPlan(std::uint64_t seed, double rate) {
  FaultPlan plan;
  plan.seed = seed;
  plan.lpPivotRate = rate;
  return plan;
}

FaultPlan deadlinePlan(std::uint64_t seed, double rate) {
  FaultPlan plan;
  plan.seed = seed;
  plan.deadlineClockRate = rate;
  return plan;
}

// FaultedRunsReplayFromTheSeed compares two runs of the same code; these
// pin the ladder itself, so a change that reorders how the deadline,
// cancellation and fault-injector checks are consulted, or which rung a
// fault lands on, fails here.  The pivot plans reach the relaxed,
// structural and failed rungs; the deadline plans trip the clock both
// before a set starts and inside its branch-and-bound.  A deliberate
// change re-pins them; each failure message prints the new table.
constexpr test_util::Golden kLadderPivotFaults[] = {
    {"check_data/all-miss", 0x1acc6ca8f36843e5ULL},
    {"check_data/first-iteration-split", 0xb91a69280f5a1a8cULL},
    {"check_data/conflict-graph", 0x64da9adb8041951fULL},
    {"dhry/all-miss", 0x459ab668a6ee07a4ULL},
    {"dhry/first-iteration-split", 0xa1ec302db4f9cf30ULL},
    {"dhry/conflict-graph", 0x1cb7fe0e5f8fa7caULL},
    {"whetstone/all-miss", 0x1036b9f40cc9d3adULL},
    {"whetstone/first-iteration-split", 0x4a536aa6396101e9ULL},
    {"whetstone/conflict-graph", 0xa3e6607f9d9b86baULL},
};

constexpr test_util::Golden kLadderDeadlineClock[] = {
    {"check_data/all-miss", 0x061c0be1d5fff1b4ULL},
    {"check_data/first-iteration-split", 0x4285fcd191cbc8bbULL},
    {"check_data/conflict-graph", 0xa231df9e587b33a9ULL},
    {"dhry/all-miss", 0x9aa529c106ab54dbULL},
    {"dhry/first-iteration-split", 0xc3f43f02b3d78395ULL},
    {"dhry/conflict-graph", 0xd7877f4747c32e99ULL},
    {"whetstone/all-miss", 0x4a0db43280f208f8ULL},
    {"whetstone/first-iteration-split", 0xe3d0204db471e5edULL},
    {"whetstone/conflict-graph", 0xe9e9f0bd0a3caa69ULL},
};

TEST(DegradedEstimate, GoldenLadderUnderPivotFaults) {
  test_util::expectPinned(
      ladderHashes({pivotPlan(5, 0.002), pivotPlan(5, 0.01),
                    pivotPlan(5, 0.05), pivotPlan(3, 0.9)}),
      kLadderPivotFaults, "pivot-fault ladder");
}

TEST(DegradedEstimate, GoldenLadderUnderDeadlineClock) {
  test_util::expectPinned(
      ladderHashes({deadlinePlan(1, 0.05), deadlinePlan(6, 0.05),
                    deadlinePlan(7, 0.05), deadlinePlan(5, 0.2)}),
      kLadderDeadlineClock, "deadline-clock ladder");
}

}  // namespace
}  // namespace cinderella
