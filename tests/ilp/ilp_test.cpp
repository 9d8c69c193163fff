// Branch-and-bound ILP tests: hand-built instances plus a property sweep
// verifying against exhaustive enumeration on random small ILPs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/support/text.hpp"

namespace cinderella::ilp {
namespace {

using lp::LinearExpr;
using lp::Problem;
using lp::Relation;
using lp::Sense;

TEST(Ilp, IntegralRelaxationNeedsOneLp) {
  // Network-flow-like: the relaxation is already integral — the paper's
  // observation about IPET ILPs.
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr c1;
  c1.add(x, 1.0);
  c1.add(y, -1.0);
  p.addConstraint(std::move(c1), Relation::Equal, 0.0);
  LinearExpr c2;
  c2.add(x, 1.0);
  p.addConstraint(std::move(c2), Relation::LessEq, 7.0);
  LinearExpr obj;
  obj.add(x, 2.0);
  obj.add(y, 1.0);
  p.setObjective(obj, Sense::Maximize);

  const IlpSolution s = ilp::solve(p);
  ASSERT_EQ(s.status, IlpStatus::Optimal);
  EXPECT_NEAR(s.objective, 21.0, 1e-6);
  EXPECT_TRUE(s.stats.firstRelaxationIntegral);
  EXPECT_EQ(s.stats.lpCalls, 1);
  EXPECT_EQ(s.stats.nodesExpanded, 1);
}

TEST(Ilp, FractionalRelaxationBranches) {
  // max x + y  s.t.  2x + 2y <= 5: LP gives 2.5, ILP gives 2.
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr c;
  c.add(x, 2.0);
  c.add(y, 2.0);
  p.addConstraint(std::move(c), Relation::LessEq, 5.0);
  LinearExpr obj;
  obj.add(x, 1.0);
  obj.add(y, 1.0);
  p.setObjective(obj, Sense::Maximize);

  const IlpSolution s = ilp::solve(p);
  ASSERT_EQ(s.status, IlpStatus::Optimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
  EXPECT_FALSE(s.stats.firstRelaxationIntegral);
  EXPECT_GT(s.stats.lpCalls, 1);
  // Each expanded node solves one LP relaxation, and a child whose dive
  // failed or called it infeasible one more, cold.
  EXPECT_EQ(s.stats.nodesExpanded + s.stats.diveFallbacks +
                s.stats.infeasibleConfirmations,
            s.stats.lpCalls);
  EXPECT_EQ(s.stats.diveFallbacks, 0);
  EXPECT_EQ(s.stats.coldNodes, s.stats.infeasibleConfirmations);
}

TEST(Ilp, KnapsackClassic) {
  // max 10a + 13b + 7c  s.t.  3a + 4b + 2c <= 6  (0/1 via <= 1 bounds).
  Problem p;
  const int a = p.addVar("a");
  const int b = p.addVar("b");
  const int c = p.addVar("c");
  LinearExpr w;
  w.add(a, 3.0);
  w.add(b, 4.0);
  w.add(c, 2.0);
  p.addConstraint(std::move(w), Relation::LessEq, 6.0);
  for (const int v : {a, b, c}) {
    LinearExpr bound;
    bound.add(v, 1.0);
    p.addConstraint(std::move(bound), Relation::LessEq, 1.0);
  }
  LinearExpr obj;
  obj.add(a, 10.0);
  obj.add(b, 13.0);
  obj.add(c, 7.0);
  p.setObjective(obj, Sense::Maximize);

  const IlpSolution s = ilp::solve(p);
  ASSERT_EQ(s.status, IlpStatus::Optimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-6);  // b + c
}

TEST(Ilp, Minimization) {
  // min 3x + 4y  s.t.  2x + y >= 5, x + 3y >= 7.
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr c1;
  c1.add(x, 2.0);
  c1.add(y, 1.0);
  p.addConstraint(std::move(c1), Relation::GreaterEq, 5.0);
  LinearExpr c2;
  c2.add(x, 1.0);
  c2.add(y, 3.0);
  p.addConstraint(std::move(c2), Relation::GreaterEq, 7.0);
  LinearExpr obj;
  obj.add(x, 3.0);
  obj.add(y, 4.0);
  p.setObjective(obj, Sense::Minimize);

  const IlpSolution s = ilp::solve(p);
  ASSERT_EQ(s.status, IlpStatus::Optimal);
  // Integer optimum: enumerate by hand -> x=2,y=2 cost 14 (2x+y=6>=5,
  // x+3y=8>=7); x=1,y=3 also 15; x=3,y=2 gives 17...
  EXPECT_NEAR(s.objective, 14.0, 1e-6);
}

TEST(Ilp, InfeasibleIntegerButFeasibleRelaxation) {
  // 2x = 1 has the LP solution x = 0.5 but no integer solution.
  Problem p;
  const int x = p.addVar("x");
  LinearExpr c;
  c.add(x, 2.0);
  p.addConstraint(std::move(c), Relation::Equal, 1.0);
  LinearExpr obj;
  obj.add(x, 1.0);
  p.setObjective(obj, Sense::Maximize);

  EXPECT_EQ(ilp::solve(p).status, IlpStatus::Infeasible);
}

TEST(Ilp, InfeasibleRelaxation) {
  Problem p;
  const int x = p.addVar("x");
  LinearExpr c1;
  c1.add(x, 1.0);
  p.addConstraint(std::move(c1), Relation::GreaterEq, 3.0);
  LinearExpr c2;
  c2.add(x, 1.0);
  p.addConstraint(std::move(c2), Relation::LessEq, 1.0);
  LinearExpr obj;
  obj.add(x, 1.0);
  p.setObjective(obj, Sense::Maximize);

  EXPECT_EQ(ilp::solve(p).status, IlpStatus::Infeasible);
}

TEST(Ilp, UnboundedDetected) {
  Problem p;
  const int x = p.addVar("x");
  LinearExpr obj;
  obj.add(x, 1.0);
  p.setObjective(obj, Sense::Maximize);
  EXPECT_EQ(ilp::solve(p).status, IlpStatus::Unbounded);
}

TEST(Ilp, SolutionValuesAreIntegral) {
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr c;
  c.add(x, 3.0);
  c.add(y, 7.0);
  p.addConstraint(std::move(c), Relation::LessEq, 22.0);
  LinearExpr obj;
  obj.add(x, 1.0);
  obj.add(y, 3.0);
  p.setObjective(obj, Sense::Maximize);

  const IlpSolution s = ilp::solve(p);
  ASSERT_EQ(s.status, IlpStatus::Optimal);
  for (const double v : s.values) {
    EXPECT_DOUBLE_EQ(v, std::round(v));
  }
}

// ---------------------------------------------------------------------
// Checked exact objectives: llround(double) silently loses precision
// past 2^53, so the solver recomputes integral objectives in checked
// int64 with an __int128 promotion retry.

TEST(Ilp, ExactObjectiveSurvivesIntermediateOverflow) {
  // max 2^62 a + 2^62 b - 2^62 c with a = b = c = 1: the partial sum
  // 2^62 + 2^62 wraps int64, but the true optimum 2^62 fits — the
  // __int128 retry must deliver it exactly.
  const double big = std::ldexp(1.0, 62);
  Problem p;
  const int a = p.addVar("a");
  const int b = p.addVar("b");
  const int c = p.addVar("c");
  for (const int v : {a, b, c}) {
    LinearExpr fix;
    fix.add(v, 1.0);
    p.addConstraint(std::move(fix), Relation::Equal, 1.0);
  }
  LinearExpr obj;
  obj.add(a, big);
  obj.add(b, big);
  obj.add(c, -big);
  p.setObjective(obj, Sense::Maximize);

  const IlpSolution s = ilp::solve(p);
  ASSERT_EQ(s.status, IlpStatus::Optimal);
  EXPECT_TRUE(s.objectiveIsExact);
  EXPECT_FALSE(s.objectiveSaturated);
  EXPECT_EQ(s.objectiveExact, std::int64_t{1} << 62);
  EXPECT_GE(s.stats.checkedPromotions, 1);
}

TEST(Ilp, ExactObjectiveSaturatesPastInt64) {
  // max 2^62 (a + b + c) with a = b = c = 1: the true optimum 3 * 2^62
  // exceeds INT64_MAX, so the exact objective saturates with a flag.
  const double big = std::ldexp(1.0, 62);
  Problem p;
  const int a = p.addVar("a");
  const int b = p.addVar("b");
  const int c = p.addVar("c");
  for (const int v : {a, b, c}) {
    LinearExpr fix;
    fix.add(v, 1.0);
    p.addConstraint(std::move(fix), Relation::Equal, 1.0);
  }
  LinearExpr obj;
  obj.add(a, big);
  obj.add(b, big);
  obj.add(c, big);
  p.setObjective(obj, Sense::Maximize);

  const IlpSolution s = ilp::solve(p);
  ASSERT_EQ(s.status, IlpStatus::Optimal);
  EXPECT_TRUE(s.objectiveSaturated);
  EXPECT_EQ(s.objectiveExact, std::numeric_limits<std::int64_t>::max());
}

TEST(Ilp, ExactObjectiveMatchesDoubleOnSmallInstances) {
  Problem p;
  const int x = p.addVar("x");
  LinearExpr c;
  c.add(x, 1.0);
  p.addConstraint(std::move(c), Relation::LessEq, 7.0);
  LinearExpr obj;
  obj.add(x, 3.0);
  p.setObjective(obj, Sense::Maximize);

  const IlpSolution s = ilp::solve(p);
  ASSERT_EQ(s.status, IlpStatus::Optimal);
  EXPECT_TRUE(s.objectiveIsExact);
  EXPECT_EQ(s.objectiveExact, 21);
  EXPECT_EQ(s.stats.checkedPromotions, 0);
}

TEST(Ilp, InterruptStopsTheSearch) {
  // An interrupt that fires immediately must stop the solve before any
  // node is expanded and report Interrupted rather than an answer.
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr c;
  c.add(x, 2.0);
  c.add(y, 2.0);
  p.addConstraint(std::move(c), Relation::LessEq, 5.0);
  LinearExpr obj;
  obj.add(x, 1.0);
  obj.add(y, 1.0);
  p.setObjective(obj, Sense::Maximize);

  IlpOptions options;
  options.interrupt = [] { return true; };
  const IlpSolution s = ilp::solve(p, options);
  EXPECT_EQ(s.status, IlpStatus::Interrupted);
  EXPECT_EQ(s.stats.nodesExpanded, 0);
}

TEST(Ilp, RootRelaxationBoundIsRecorded) {
  // max x + y s.t. 2x + 2y <= 5: root LP gives 2.5, ILP 2 — the
  // recorded relaxation bound must be the LP optimum, a sound
  // over-estimate the analyzer can degrade to.
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr c;
  c.add(x, 2.0);
  c.add(y, 2.0);
  p.addConstraint(std::move(c), Relation::LessEq, 5.0);
  LinearExpr obj;
  obj.add(x, 1.0);
  obj.add(y, 1.0);
  p.setObjective(obj, Sense::Maximize);

  const IlpSolution s = ilp::solve(p);
  ASSERT_EQ(s.status, IlpStatus::Optimal);
  ASSERT_TRUE(s.haveRelaxationBound);
  EXPECT_NEAR(s.relaxationBound, 2.5, 1e-6);
  EXPECT_GE(s.relaxationBound, s.objective);
}

// ---------------------------------------------------------------------
// Property sweep: random small ILPs vs exhaustive enumeration.

struct RandomIlp {
  Problem problem;
  int numVars;
  int box;  // enumeration range per variable: 0..box
};

RandomIlp makeRandom(std::uint64_t seed) {
  Xorshift64 rng(seed);
  RandomIlp out;
  out.numVars = static_cast<int>(rng.range(1, 3));
  out.box = 6;
  Problem& p = out.problem;
  for (int v = 0; v < out.numVars; ++v) {
    const int var = p.addVar();
    LinearExpr bound;
    bound.add(var, 1.0);
    p.addConstraint(std::move(bound), Relation::LessEq,
                    static_cast<double>(out.box));
  }
  const int numConstraints = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < numConstraints; ++i) {
    LinearExpr e;
    for (int v = 0; v < out.numVars; ++v) {
      e.add(v, static_cast<double>(rng.range(-3, 3)));
    }
    const Relation rel =
        rng.range(0, 1) ? Relation::LessEq : Relation::GreaterEq;
    p.addConstraint(std::move(e), rel, static_cast<double>(rng.range(-5, 10)));
  }
  LinearExpr obj;
  for (int v = 0; v < out.numVars; ++v) {
    obj.add(v, static_cast<double>(rng.range(-4, 6)));
  }
  p.setObjective(obj, rng.range(0, 1) ? Sense::Maximize : Sense::Minimize);
  return out;
}

class IlpBruteForceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IlpBruteForceTest, MatchesExhaustiveEnumeration) {
  RandomIlp instance = makeRandom(GetParam());
  Problem& p = instance.problem;

  // Exhaustive enumeration over the bounded box.
  bool anyFeasible = false;
  double bestValue = 0.0;
  std::vector<double> point(static_cast<std::size_t>(instance.numVars), 0.0);
  const bool maximize = (p.sense() == Sense::Maximize);
  const int count = instance.box + 1;
  const int total = static_cast<int>(std::pow(count, instance.numVars));
  for (int code = 0; code < total; ++code) {
    int rest = code;
    for (int v = 0; v < instance.numVars; ++v) {
      point[static_cast<std::size_t>(v)] = rest % count;
      rest /= count;
    }
    if (!p.isFeasiblePoint(point)) continue;
    const double value = p.objective().evaluate(point);
    if (!anyFeasible || (maximize ? value > bestValue : value < bestValue)) {
      bestValue = value;
    }
    anyFeasible = true;
  }

  const IlpSolution s = ilp::solve(p);
  if (!anyFeasible) {
    EXPECT_EQ(s.status, IlpStatus::Infeasible) << p.str();
    return;
  }
  ASSERT_EQ(s.status, IlpStatus::Optimal) << p.str();
  EXPECT_NEAR(s.objective, bestValue, 1e-6) << p.str();
  // The reported point must itself be feasible.
  EXPECT_TRUE(p.isFeasiblePoint(s.values)) << p.str();
  // Children are answered by their dive; only an infeasible verdict is
  // re-solved cold, to confirm it.
  EXPECT_EQ(s.stats.diveFallbacks, 0) << p.str();
  EXPECT_EQ(s.stats.coldNodes, s.stats.infeasibleConfirmations) << p.str();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, IlpBruteForceTest,
                         ::testing::Range<std::uint64_t>(1, 61));

TEST(Ilp, RandomInstancesBranchOnTheDive) {
  // The sweep above exercises the dive, not just integral roots.
  int dived = 0;
  for (std::uint64_t seed = 1; seed < 61; ++seed) {
    const IlpStats stats = ilp::solve(makeRandom(seed).problem).stats;
    dived += stats.nodesExpanded - 1 > stats.coldNodes ? 1 : 0;
  }
  EXPECT_GE(dived, 3);
}

}  // namespace
}  // namespace cinderella::ilp
