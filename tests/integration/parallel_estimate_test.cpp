// Integration tests for the parallel solve engine (SolveControl) and the
// LP-format round trip: export the worst-case ILPs, re-ingest them with
// lp::parseLpFormatAll, re-solve with ilp::solve, and recover the bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/lp/lp_format.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella {
namespace {

/// Compiled benchmark + analyzer with the benchmark's own constraints.
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

void expectIdentical(const ipet::Estimate& a, const ipet::Estimate& b) {
  EXPECT_EQ(a.bound, b.bound);
  EXPECT_EQ(a.stats.constraintSets, b.stats.constraintSets);
  EXPECT_EQ(a.stats.prunedNullSets, b.stats.prunedNullSets);
  EXPECT_EQ(a.stats.ilpSolves, b.stats.ilpSolves);
  EXPECT_EQ(a.stats.lpCalls, b.stats.lpCalls);
  EXPECT_EQ(a.stats.nodesExpanded, b.stats.nodesExpanded);
  EXPECT_EQ(a.stats.totalPivots, b.stats.totalPivots);
  EXPECT_EQ(a.stats.allFirstRelaxationsIntegral,
            b.stats.allFirstRelaxationsIntegral);
  EXPECT_EQ(a.stats.cacheFlowVars, b.stats.cacheFlowVars);
  EXPECT_EQ(a.stats.cacheFallbackSets, b.stats.cacheFallbackSets);
  EXPECT_EQ(a.stats.relaxedSets, b.stats.relaxedSets);
  EXPECT_EQ(a.stats.structuralSets, b.stats.structuralSets);
  EXPECT_EQ(a.stats.failedSets, b.stats.failedSets);
  EXPECT_EQ(a.stats.checkedPromotions, b.stats.checkedPromotions);
  EXPECT_EQ(a.stats.blandRestarts, b.stats.blandRestarts);
  EXPECT_EQ(a.timedOut, b.timedOut);
  EXPECT_EQ(a.issues.size(), b.issues.size());
  EXPECT_EQ(a.sound(), b.sound());
  ASSERT_EQ(a.worstCounts.size(), b.worstCounts.size());
  for (std::size_t i = 0; i < a.worstCounts.size(); ++i) {
    EXPECT_EQ(a.worstCounts[i].function, b.worstCounts[i].function);
    EXPECT_EQ(a.worstCounts[i].block, b.worstCounts[i].block);
    EXPECT_EQ(a.worstCounts[i].count, b.worstCounts[i].count);
  }
  ASSERT_EQ(a.bestCounts.size(), b.bestCounts.size());
  for (std::size_t i = 0; i < a.bestCounts.size(); ++i) {
    EXPECT_EQ(a.bestCounts[i].function, b.bestCounts[i].function);
    EXPECT_EQ(a.bestCounts[i].block, b.bestCounts[i].block);
    EXPECT_EQ(a.bestCounts[i].count, b.bestCounts[i].count);
  }
  // Per-set solve records: every field except the wall-clock timings is
  // part of the determinism contract.
  ASSERT_EQ(a.setRecords.size(), b.setRecords.size());
  for (std::size_t i = 0; i < a.setRecords.size(); ++i) {
    const ipet::SetSolveRecord& ra = a.setRecords[i];
    const ipet::SetSolveRecord& rb = b.setRecords[i];
    EXPECT_EQ(ra.setIndex, rb.setIndex);
    EXPECT_EQ(ra.userConstraints, rb.userConstraints);
    EXPECT_EQ(ra.pruned, rb.pruned);
    EXPECT_EQ(ra.probePivots, rb.probePivots);
    EXPECT_EQ(ra.verdict, rb.verdict);
    EXPECT_EQ(ra.issue, rb.issue);
    EXPECT_EQ(ra.fallbackPivots, rb.fallbackPivots);
    EXPECT_EQ(ra.worst.objective, rb.worst.objective);
    EXPECT_EQ(ra.best.objective, rb.best.objective);
    EXPECT_EQ(ra.worst.stats.nodesExpanded, rb.worst.stats.nodesExpanded);
    EXPECT_EQ(ra.best.stats.nodesExpanded, rb.best.stats.nodesExpanded);
    EXPECT_EQ(ra.worst.degraded, rb.worst.degraded);
    EXPECT_EQ(ra.best.degraded, rb.best.degraded);
  }
}

TEST(ParallelEstimate, DeterministicAcrossThreadCounts) {
  // dhry is the fan-out showcase: 8 constraint sets, 5 pruned as null.
  for (const char* name : {"check_data", "dhry"}) {
    SCOPED_TRACE(name);
    Prepared prep(name);
    ipet::SolveControl serial;
    serial.threads = 1;
    ipet::SolveControl parallel;
    parallel.threads = 8;
    const ipet::Estimate a = prep.analyzer.estimate(serial);
    const ipet::Estimate b = prep.analyzer.estimate(parallel);
    expectIdentical(a, b);
  }
}

TEST(ParallelEstimate, DeterministicWithConflictGraphCache) {
  Prepared prep("check_data", ipet::CacheMode::ConflictGraph);
  ipet::SolveControl serial;
  serial.threads = 1;
  ipet::SolveControl parallel;
  parallel.threads = 8;
  expectIdentical(prep.analyzer.estimate(serial),
                  prep.analyzer.estimate(parallel));
}

TEST(ParallelEstimate, DigestAndEstimateShareOneFreshSystem) {
  // Two threads on one fresh analyzer race to build its system: one
  // takes the digests while the other solves.  Both answer exactly as a
  // serial run does.
  Prepared reference("dhry");
  const ipet::Analyzer::SystemDigests digests =
      reference.analyzer.systemDigests();
  const ipet::Estimate expected = reference.analyzer.estimate();
  for (int round = 0; round < 4; ++round) {
    Prepared prep("dhry");
    ipet::Analyzer::SystemDigests raced;
    std::thread digester([&] { raced = prep.analyzer.systemDigests(); });
    const ipet::Estimate solved = prep.analyzer.estimate();
    digester.join();
    EXPECT_EQ(raced.full, digests.full);
    EXPECT_EQ(raced.structural, digests.structural);
    expectIdentical(solved, expected);
  }
}

TEST(ParallelEstimate, NoArgShimMatchesExplicitControl) {
  Prepared prep("piksrt");
  expectIdentical(prep.analyzer.estimate(),
                  prep.analyzer.estimate(ipet::SolveControl{}));
}

TEST(ParallelEstimate, ZeroThreadsMeansHardwareConcurrency) {
  Prepared prep("dhry");
  ipet::SolveControl control;
  control.threads = 0;
  expectIdentical(prep.analyzer.estimate(), prep.analyzer.estimate(control));
}

TEST(ParallelEstimate, CancellationAborts) {
  Prepared prep("dhry");
  std::atomic<bool> cancel{true};
  ipet::SolveControl control;
  control.threads = 4;
  control.cancel = &cancel;
  EXPECT_THROW((void)prep.analyzer.estimate(control), AnalysisError);
}

TEST(ParallelEstimate, ExpiredDeadlineDegradesToSoundBounds) {
  // An already-expired deadline no longer aborts: every set degrades to
  // the shared structural (base-relaxation) bound, which must enclose
  // the exact interval, and the result is flagged timedOut.
  Prepared prep("dhry");
  const ipet::Estimate exact = prep.analyzer.estimate();

  ipet::SolveControl control;
  control.threads = 2;
  control.deadline = std::chrono::milliseconds(-1);  // already expired
  const ipet::Estimate degraded = prep.analyzer.estimate(control);
  EXPECT_TRUE(degraded.timedOut);
  EXPECT_TRUE(degraded.sound());
  EXPECT_TRUE(degraded.bound.encloses(exact.bound));
  EXPECT_FALSE(degraded.issues.empty());
  for (const ipet::SolveIssue& issue : degraded.issues) {
    EXPECT_EQ(issue.code, ErrorCode::DeadlineExpired);
  }
  for (const ipet::SetSolveRecord& rec : degraded.setRecords) {
    EXPECT_EQ(rec.verdict, ipet::SetVerdict::Structural);
    EXPECT_FALSE(rec.worst.solved);  // no ILP ran after expiry
  }
}

TEST(ParallelEstimate, MaxNodesOverrideStillSolves) {
  // IPET relaxations are integral at the root (paper §VI-A), so even a
  // one-node budget solves every set; the bound must be unchanged.
  Prepared prep("check_data");
  ipet::SolveControl control;
  control.maxNodes = 1;
  expectIdentical(prep.analyzer.estimate(), prep.analyzer.estimate(control));
}

TEST(LpRoundTrip, ExportedWorstCaseIlpsRecoverTheBound) {
  for (const char* name : {"check_data", "piksrt", "dhry"}) {
    SCOPED_TRACE(name);
    Prepared prep(name);
    const ipet::Estimate estimate = prep.analyzer.estimate();
    const std::string text = prep.analyzer.exportWorstCaseIlp();
    const std::vector<lp::Problem> problems = lp::parseLpFormatAll(text);
    // The export writes every constraint set, including the null ones
    // estimate() prunes.
    ASSERT_EQ(static_cast<int>(problems.size()),
              estimate.stats.constraintSets);
    bool any = false;
    std::int64_t recovered = 0;
    for (const lp::Problem& p : problems) {
      const ilp::IlpSolution solution = ilp::solve(p);
      if (solution.status != ilp::IlpStatus::Optimal) continue;  // null set
      const auto value =
          static_cast<std::int64_t>(std::llround(solution.objective));
      recovered = any ? std::max(recovered, value) : value;
      any = true;
    }
    ASSERT_TRUE(any);
    EXPECT_EQ(recovered, estimate.bound.hi);
  }
}

TEST(LpRoundTrip, ExportedIlpsRecoverTheBoundUnderConflictGraphCache) {
  Prepared prep("check_data", ipet::CacheMode::ConflictGraph);
  const ipet::Estimate estimate = prep.analyzer.estimate();
  const std::vector<lp::Problem> problems =
      lp::parseLpFormatAll(prep.analyzer.exportWorstCaseIlp());
  std::int64_t recovered = 0;
  for (const lp::Problem& p : problems) {
    const ilp::IlpSolution solution = ilp::solve(p);
    if (solution.status != ilp::IlpStatus::Optimal) continue;
    recovered = std::max(
        recovered, static_cast<std::int64_t>(std::llround(solution.objective)));
  }
  EXPECT_EQ(recovered, estimate.bound.hi);
}

}  // namespace
}  // namespace cinderella
