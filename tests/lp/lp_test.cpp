// Unit tests for the two-phase simplex LP solver.
#include <gtest/gtest.h>

#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::lp {
namespace {

TEST(LinearExpr, MergesTermsForSameVariable) {
  LinearExpr e;
  e.add(2, 1.5);
  e.add(2, 0.5);
  e.add(1, 3.0);
  e.canonicalize();
  ASSERT_EQ(e.terms().size(), 2u);
  EXPECT_EQ(e.terms()[0].var, 1);
  EXPECT_DOUBLE_EQ(e.terms()[0].coeff, 3.0);
  EXPECT_EQ(e.terms()[1].var, 2);
  EXPECT_DOUBLE_EQ(e.terms()[1].coeff, 2.0);
}

TEST(LinearExpr, DropsZeroTerms) {
  LinearExpr e;
  e.add(0, 1.0);
  e.add(0, -1.0);
  e.canonicalize();
  EXPECT_TRUE(e.terms().empty());
}

TEST(LinearExpr, FromDenseKeepsNonzeroEntriesInOrder) {
  const LinearExpr e = LinearExpr::fromDense({0.0, 2.5, 0.0, -1.0});
  const std::vector<Term> expected = {{1, 2.5}, {3, -1.0}};
  EXPECT_EQ(e.terms(), expected);
  EXPECT_EQ(e.constant(), 0.0);
}

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18  ->  36 at (2,6).
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr obj;
  obj.add(x, 3.0);
  obj.add(y, 5.0);
  p.setObjective(obj, Sense::Maximize);
  LinearExpr c1;
  c1.add(x, 1.0);
  p.addConstraint(std::move(c1), Relation::LessEq, 4.0);
  LinearExpr c2;
  c2.add(y, 2.0);
  p.addConstraint(std::move(c2), Relation::LessEq, 12.0);
  LinearExpr c3;
  c3.add(x, 3.0);
  c3.add(y, 2.0);
  p.addConstraint(std::move(c3), Relation::LessEq, 18.0);

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(s.values[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(Simplex, SolvesMinimizationWithGreaterEq) {
  // min 2x + 3y  s.t.  x + y >= 10, x >= 2  ->  x=10 ... check: cost of x
  // is lower, so all weight on x: x=10, y=0, objective 20.
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr obj;
  obj.add(x, 2.0);
  obj.add(y, 3.0);
  p.setObjective(obj, Sense::Minimize);
  LinearExpr c1;
  c1.add(x, 1.0);
  c1.add(y, 1.0);
  p.addConstraint(std::move(c1), Relation::GreaterEq, 10.0);
  LinearExpr c2;
  c2.add(x, 1.0);
  p.addConstraint(std::move(c2), Relation::GreaterEq, 2.0);

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-7);
}

TEST(Simplex, DetectsInfeasibility) {
  Problem p;
  const int x = p.addVar("x");
  LinearExpr c1;
  c1.add(x, 1.0);
  p.addConstraint(std::move(c1), Relation::LessEq, 1.0);
  LinearExpr c2;
  c2.add(x, 1.0);
  p.addConstraint(std::move(c2), Relation::GreaterEq, 2.0);
  LinearExpr obj;
  obj.add(x, 1.0);
  p.setObjective(obj, Sense::Maximize);

  EXPECT_EQ(solve(p).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr c;
  c.add(y, 1.0);
  p.addConstraint(std::move(c), Relation::LessEq, 5.0);
  LinearExpr obj;
  obj.add(x, 1.0);
  p.setObjective(obj, Sense::Maximize);

  EXPECT_EQ(solve(p).status, SolveStatus::Unbounded);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // max x + y  s.t.  x + y = 7, x - y = 1  ->  unique point (4, 3).
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr c1;
  c1.add(x, 1.0);
  c1.add(y, 1.0);
  p.addConstraint(std::move(c1), Relation::Equal, 7.0);
  LinearExpr c2;
  c2.add(x, 1.0);
  c2.add(y, -1.0);
  p.addConstraint(std::move(c2), Relation::Equal, 1.0);
  LinearExpr obj;
  obj.add(x, 1.0);
  obj.add(y, 1.0);
  p.setObjective(obj, Sense::Maximize);

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.values[0], 4.0, 1e-7);
  EXPECT_NEAR(s.values[1], 3.0, 1e-7);
}

TEST(Simplex, NegativeRhsIsNormalized) {
  // x - y <= -2 with max x, x <= 10 -> x=10 requires y >= 12; feasible
  // because y is free upward; optimal x = 10.
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  LinearExpr c1;
  c1.add(x, 1.0);
  c1.add(y, -1.0);
  p.addConstraint(std::move(c1), Relation::LessEq, -2.0);
  LinearExpr c2;
  c2.add(x, 1.0);
  p.addConstraint(std::move(c2), Relation::LessEq, 10.0);
  LinearExpr obj;
  obj.add(x, 1.0);
  p.setObjective(obj, Sense::Maximize);

  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Klee-Minty-ish degenerate rows; Bland's rule must terminate.
  Problem p;
  const int x = p.addVar("x");
  const int y = p.addVar("y");
  const int z = p.addVar("z");
  for (int i = 0; i < 3; ++i) {
    LinearExpr c;
    c.add(x, 1.0);
    c.add(y, static_cast<double>(i));
    c.add(z, 1.0);
    p.addConstraint(std::move(c), Relation::LessEq, 0.0);
  }
  LinearExpr obj;
  obj.add(x, 1.0);
  obj.add(y, 1.0);
  p.setObjective(obj, Sense::Maximize);

  // Row 0 pins x = z = 0 and row 1 then pins y = 0: a fully degenerate
  // optimum at the origin.
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-7);
}

TEST(Problem, FeasiblePointCheck) {
  Problem p;
  const int x = p.addVar("x");
  LinearExpr c;
  c.add(x, 2.0);
  p.addConstraint(std::move(c), Relation::LessEq, 10.0);
  EXPECT_TRUE(p.isFeasiblePoint({5.0}));
  EXPECT_FALSE(p.isFeasiblePoint({5.1}));
  EXPECT_FALSE(p.isFeasiblePoint({-1.0}));
}

}  // namespace
}  // namespace cinderella::lp
