// Integration tests over the paper's benchmark suite (Table I):
// the estimated bound must enclose both the calculated bound
// (Experiment 1) and the measured bound (Experiment 2), path-analysis
// pessimism must be at the paper's near-zero level, and the solver
// statistics must reproduce the paper's observations.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <map>
#include <thread>
#include <vector>

#include "cinderella/suite/harness.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella::suite {
namespace {

class SuiteTest : public ::testing::TestWithParam<std::string> {
 protected:
  static const BenchmarkEvaluation& eval(const std::string& name) {
    // Evaluations are expensive; cache them across test cases.
    static std::map<std::string, BenchmarkEvaluation> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      it = cache.emplace(name, evaluate(benchmarkByName(name))).first;
    }
    return it->second;
  }
};

TEST_P(SuiteTest, EstimatedEnclosesCalculated) {
  const auto& e = eval(GetParam());
  EXPECT_LE(e.estimated.lo, e.calculated.lo);
  EXPECT_GE(e.estimated.hi, e.calculated.hi);
}

TEST_P(SuiteTest, EstimatedEnclosesMeasured) {
  const auto& e = eval(GetParam());
  EXPECT_LE(e.estimated.lo, e.measured.lo);
  EXPECT_GE(e.estimated.hi, e.measured.hi);
}

TEST_P(SuiteTest, CalculatedEnclosesMeasured) {
  // counts * worst-cost >= actual cycles of the same run (and dually for
  // best): the cost model's per-block bracketing, aggregated.
  const auto& e = eval(GetParam());
  EXPECT_LE(e.calculated.lo, e.measured.lo);
  EXPECT_GE(e.calculated.hi, e.measured.hi);
}

TEST_P(SuiteTest, PathAnalysisPessimismIsNearZero) {
  // Paper Table II: pessimism within [0.00, 0.02] on every benchmark.
  const auto& e = eval(GetParam());
  EXPECT_GE(e.pessCalcLo, -1e-9);
  EXPECT_GE(e.pessCalcHi, -1e-9);
  EXPECT_LE(e.pessCalcLo, 0.02 + 1e-9);
  EXPECT_LE(e.pessCalcHi, 0.02 + 1e-9);
}

TEST_P(SuiteTest, FirstLpRelaxationIsIntegral) {
  // Paper Section VI-A: "the branch-and-bound ILP solver finds that the
  // solution of the very first linear program call it makes is integer
  // valued".
  const auto& e = eval(GetParam());
  EXPECT_TRUE(e.stats.allFirstRelaxationsIntegral);
}

TEST_P(SuiteTest, BoundsArePositiveAndOrdered) {
  const auto& e = eval(GetParam());
  EXPECT_GT(e.estimated.lo, 0);
  EXPECT_LE(e.estimated.lo, e.estimated.hi);
  EXPECT_LE(e.measured.lo, e.measured.hi);
}

TEST_P(SuiteTest, FirstIterationSplitIsSoundAndNoLooser) {
  const Benchmark& bench = benchmarkByName(GetParam());
  EvalOptions options;
  options.cacheMode = ipet::CacheMode::FirstIterationSplit;
  const BenchmarkEvaluation refined = evaluate(bench, options);
  const auto& plain = eval(GetParam());
  EXPECT_LE(refined.estimated.hi, plain.estimated.hi);
  EXPECT_GE(refined.estimated.hi, refined.measured.hi);
  EXPECT_LE(refined.estimated.lo, refined.measured.lo);
}

TEST_P(SuiteTest, ConflictGraphCacheIsSoundAndNoLooser) {
  const Benchmark& bench = benchmarkByName(GetParam());
  EvalOptions options;
  options.cacheMode = ipet::CacheMode::ConflictGraph;
  const BenchmarkEvaluation refined = evaluate(bench, options);
  const auto& plain = eval(GetParam());
  // Never looser than all-miss, and still encloses the measurement.
  EXPECT_LE(refined.estimated.hi, plain.estimated.hi);
  EXPECT_GE(refined.estimated.hi, refined.measured.hi);
  EXPECT_LE(refined.estimated.lo, refined.measured.lo);
  // The best-case bound is cache-mode independent.
  EXPECT_EQ(refined.estimated.lo, plain.estimated.lo);
}

std::vector<std::string> benchmarkNames() {
  std::vector<std::string> names;
  for (const BenchmarkEntry& entry : benchmarkTable()) {
    names.emplace_back(entry.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteTest,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto& info) { return info.param; });

TEST(SuiteTable1, ConstraintSetCountsMatchPaperShape) {
  // check_data: one 2-way disjunction -> 2 sets, none null.
  {
    const auto e = evaluate(benchmarkByName("check_data"));
    EXPECT_EQ(e.stats.constraintSets, 2);
    EXPECT_EQ(e.stats.prunedNullSets, 0);
  }
  // dhry: three 2-way disjunctions -> 8 sets, 5 detected null (paper
  // Table I reports 8 -> 3).
  {
    const auto e = evaluate(benchmarkByName("dhry"));
    EXPECT_EQ(e.stats.constraintSets, 8);
    EXPECT_EQ(e.stats.prunedNullSets, 5);
  }
  // Everything else: a single conjunctive set.
  for (const auto& b : allBenchmarks()) {
    if (b.name == "check_data" || b.name == "dhry") continue;
    const auto e = evaluate(b);
    EXPECT_EQ(e.stats.constraintSets, 1) << b.name;
  }
}

TEST(SuiteTable1, AllThirteenBenchmarksPresent) {
  EXPECT_EQ(allBenchmarks().size(), 13u);
  for (const char* name :
       {"check_data", "fft", "piksrt", "des", "line", "circle",
        "jpeg_fdct_islow", "jpeg_idct_islow", "recon", "fullsearch",
        "whetstone", "dhry", "matgen"}) {
    EXPECT_NO_THROW((void)benchmarkByName(name));
  }
  EXPECT_THROW((void)benchmarkByName("unknown"), cinderella::Error);
}

// Defined before the other registry tests so that, in a run of the
// SuiteRegistry* filter, these lookups are the process's first.
TEST(SuiteRegistry, ConcurrentFirstLookupBuildsOnce) {
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<const Benchmark*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[static_cast<std::size_t>(t)] = &benchmarkByName("whetstone");
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Benchmark* b : seen) {
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b, seen.front());
  }
  EXPECT_EQ(seen.front()->name, "whetstone");
}

TEST(SuiteRegistry, TableKeysAreTheFactoryNames) {
  ASSERT_EQ(benchmarkTable().size(), 13u);
  for (const BenchmarkEntry& entry : benchmarkTable()) {
    EXPECT_EQ(entry.make().name, entry.name);
  }
}

void expectSamePatches(const std::vector<sim::GlobalPatch>& a,
                       const std::vector<sim::GlobalPatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].words, b[i].words);
  }
}

TEST(SuiteRegistry, LookupMatchesAllBenchmarks) {
  const std::vector<Benchmark>& all = allBenchmarks();
  ASSERT_EQ(all.size(), benchmarkTable().size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Benchmark& listed = all[i];
    SCOPED_TRACE(listed.name);
    EXPECT_EQ(listed.name, benchmarkTable()[i].name);
    const Benchmark& found = benchmarkByName(listed.name);
    EXPECT_EQ(found.source, listed.source);
    EXPECT_EQ(found.rootFunction, listed.rootFunction);
    ASSERT_EQ(found.constraints.size(), listed.constraints.size());
    for (std::size_t c = 0; c < found.constraints.size(); ++c) {
      EXPECT_EQ(found.constraints[c].text, listed.constraints[c].text);
      EXPECT_EQ(found.constraints[c].scope, listed.constraints[c].scope);
    }
    expectSamePatches(found.worstData, listed.worstData);
    expectSamePatches(found.bestData, listed.bestData);
  }
}

TEST(SuiteTable3, MicroArchPessimismHasPaperShape) {
  // Experiment 2's signature result: the measured bound sits well inside
  // the estimated bound, i.e. micro-architectural pessimism is large
  // compared to path pessimism, mainly on the worst-case side.
  double maxUpper = 0.0;
  for (const auto& b : allBenchmarks()) {
    const auto e = evaluate(b);
    maxUpper = std::max(maxUpper, e.pessMeasHi);
  }
  EXPECT_GT(maxUpper, 0.5);
}

}  // namespace
}  // namespace cinderella::suite
