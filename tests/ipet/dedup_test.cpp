// Constraint-set deduplication and domination pruning (the analyzer's
// cross-set layer): identical sets after row canonicalization
// are solved once, sets whose rows are a proper superset of a solved
// set's rows are skipped (their feasible region is contained, so the
// merged interval already covers them), and the bounds are bit-identical
// to solving every set.
#include <gtest/gtest.h>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"

namespace cinderella::ipet {
namespace {

/// Paper Fig. 2 if-then-else: x0 cond, x1 then, x2 else, x3 join.
Analyzer makeFig2(const codegen::CompileResult& compiled) {
  return Analyzer(compiled, "f");
}

codegen::CompileResult compileFig2() {
  return codegen::compileSource(
      "int q;\nint r;\n"
      "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }");
}

TEST(Dedup, IdenticalDisjunctsSolveOnce) {
  const auto compiled = compileFig2();
  Analyzer analyzer = makeFig2(compiled);
  // DNF expansion yields two *identical* conjunctive sets.
  analyzer.addConstraint("x1 = 0 | x1 = 0", "f");

  const Estimate e = analyzer.estimate();
  ASSERT_EQ(e.stats.constraintSets, 2);
  EXPECT_EQ(e.stats.dedupedSets, 1);
  EXPECT_EQ(e.stats.dominatedSets, 0);
  EXPECT_EQ(e.stats.ilpSolves, 2);  // one set solved: max + min

  ASSERT_EQ(e.setRecords.size(), 2u);
  EXPECT_LT(e.setRecords[0].sharedWith, 0);
  EXPECT_EQ(e.setRecords[1].sharedWith, 0);
  EXPECT_FALSE(e.setRecords[1].dominated);

  // Same bounds as solving the set once, directly.
  Analyzer single = makeFig2(compiled);
  single.addConstraint("x1 = 0", "f");
  EXPECT_EQ(e.bound, single.estimate().bound);
}

TEST(Dedup, ReorderedConjunctionsAreIdentical) {
  const auto compiled = compileFig2();
  Analyzer analyzer = makeFig2(compiled);
  // The two disjuncts list the same rows in different order; the
  // canonical form sorts rows, so they hash identically.
  analyzer.addConstraint("(x1 = 0 & x2 = 1) | (x2 = 1 & x1 = 0)", "f");

  const Estimate e = analyzer.estimate();
  ASSERT_EQ(e.stats.constraintSets, 2);
  EXPECT_EQ(e.stats.dedupedSets, 1);
}

TEST(Dedup, SupersetSetIsDominated) {
  const auto compiled = compileFig2();
  Analyzer analyzer = makeFig2(compiled);
  // Second disjunct's rows strictly contain the first's: its region is
  // contained, so it cannot widen the merged interval.
  analyzer.addConstraint("x1 = 0 | (x1 = 0 & x2 = 1)", "f");

  const Estimate e = analyzer.estimate();
  ASSERT_EQ(e.stats.constraintSets, 2);
  EXPECT_EQ(e.stats.dedupedSets, 0);
  EXPECT_EQ(e.stats.dominatedSets, 1);
  ASSERT_EQ(e.setRecords.size(), 2u);
  EXPECT_EQ(e.setRecords[1].sharedWith, 0);
  EXPECT_TRUE(e.setRecords[1].dominated);

  Analyzer single = makeFig2(compiled);
  single.addConstraint("x1 = 0", "f");
  EXPECT_EQ(e.bound, single.estimate().bound);
}

TEST(Dedup, DistinctSetsAllSolve) {
  const auto compiled = compileFig2();
  Analyzer analyzer = makeFig2(compiled);
  analyzer.addConstraint("x1 = 0 | x2 = 0", "f");

  const Estimate e = analyzer.estimate();
  ASSERT_EQ(e.stats.constraintSets, 2);
  EXPECT_EQ(e.stats.dedupedSets, 0);
  EXPECT_EQ(e.stats.dominatedSets, 0);
  EXPECT_EQ(e.stats.ilpSolves, 4);
}

TEST(Dedup, RunsWithPresolveOffToo) {
  // Set deduplication is not tied to any solver switch.
  const auto compiled = compileFig2();
  Analyzer analyzer = makeFig2(compiled);
  analyzer.addConstraint("x1 = 0 | x1 = 0", "f");

  SolveControl noPresolve;
  noPresolve.presolve = false;
  const Estimate e = analyzer.estimate(noPresolve);
  EXPECT_EQ(e.stats.dedupedSets, 1);
  EXPECT_EQ(e.stats.ilpSolves, 2);  // only the representative solved

  EXPECT_EQ(e.bound, analyzer.estimate().bound);
}

TEST(Dedup, DuplicateOfNullSetStaysPruned) {
  const auto compiled = compileFig2();
  Analyzer analyzer = makeFig2(compiled);
  // x1 = 5 contradicts the unit entry flow, so both copies are null;
  // the duplicate inherits the representative's pruned verdict and the
  // null tally counts both.  The feasible first disjunct keeps the
  // estimate from failing outright.
  analyzer.addConstraint("x1 = 1 | x1 = 5 | x1 = 5", "f");

  const Estimate e = analyzer.estimate();
  ASSERT_EQ(e.stats.constraintSets, 3);
  EXPECT_EQ(e.stats.prunedNullSets, 2);
  EXPECT_EQ(e.stats.dedupedSets, 0);  // pruned takes precedence
  ASSERT_EQ(e.setRecords.size(), 3u);
  EXPECT_FALSE(e.setRecords[0].pruned);
  EXPECT_TRUE(e.setRecords[1].pruned);
  EXPECT_TRUE(e.setRecords[2].pruned);
  EXPECT_EQ(e.setRecords[2].sharedWith, 1);
}

TEST(Dedup, DuplicateOfDominatedSetPointsAtItsDominator) {
  const auto compiled = compileFig2();
  Analyzer analyzer = makeFig2(compiled);
  // Set 1 is dominated by set 0 (a proper superset of its rows), and
  // set 2 duplicates set 1.  The chain resolves so that set 2 points at
  // set 0, the set that actually runs, and counts as dominated.
  analyzer.addConstraint("x1 = 0 | (x1 = 0 & x2 = 1) | (x2 = 1 & x1 = 0)",
                         "f");

  const Estimate e = analyzer.estimate();
  ASSERT_EQ(e.stats.constraintSets, 3);
  EXPECT_EQ(e.stats.dedupedSets, 0);
  EXPECT_EQ(e.stats.dominatedSets, 2);
  EXPECT_EQ(e.stats.prunedNullSets, 0);
  EXPECT_EQ(e.stats.ilpSolves, 2);  // only set 0 solved
  ASSERT_EQ(e.setRecords.size(), 3u);
  EXPECT_LT(e.setRecords[0].sharedWith, 0);
  EXPECT_EQ(e.setRecords[1].sharedWith, 0);
  EXPECT_TRUE(e.setRecords[1].dominated);
  EXPECT_EQ(e.setRecords[2].sharedWith, 0);
  EXPECT_TRUE(e.setRecords[2].dominated);

  Analyzer single = makeFig2(compiled);
  single.addConstraint("x1 = 0", "f");
  EXPECT_EQ(e.bound, single.estimate().bound);
}

}  // namespace
}  // namespace cinderella::ipet
