// lp::Reduction unit tests: the fixpoint reductions themselves, exact
// agreement between presolved and raw solves, and the postsolve mapping
// of solution points back to the original problem.
#include <gtest/gtest.h>

#include <vector>

#include "cinderella/lp/presolve.hpp"
#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::lp {
namespace {

LinearExpr expr(std::initializer_list<Term> terms) {
  LinearExpr e;
  for (const Term& t : terms) e.add(t.var, t.coeff);
  return e;
}

/// An IPET-shaped system: entry pinned to 1, flow conservation through
/// a diamond, and a loop bound row.  Optimum: x1 = 1 (beats x2), the
/// loop runs its full 10 iterations.
Problem diamondWithLoop() {
  Problem p;
  for (int i = 0; i < 5; ++i) p.addVar("x" + std::to_string(i));
  p.setObjective(
      expr({{0, 5.0}, {1, 3.0}, {2, 2.0}, {3, 4.0}, {4, 7.0}}),
      Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}}), Relation::Equal, 1.0);
  p.addConstraint(expr({{1, 1.0}, {2, 1.0}, {0, -1.0}}), Relation::Equal,
                  0.0);
  p.addConstraint(expr({{3, 1.0}, {1, -1.0}, {2, -1.0}}), Relation::Equal,
                  0.0);
  p.addConstraint(expr({{4, 1.0}, {3, -10.0}}), Relation::LessEq, 0.0);
  return p;
}

SimplexOptions noPresolve() {
  SimplexOptions o;
  o.presolve = false;
  return o;
}

TEST(Presolve, FlowSystemShrinksAndAgreesWithRawSolve) {
  const Problem p = diamondWithLoop();
  const Reduction r = Reduction::reduce(p, SimplexOptions{});
  ASSERT_FALSE(r.provedInfeasible());
  EXPECT_TRUE(r.effective());
  // The entry pin fixes x0; the flow rows substitute away at least one
  // more variable; every eliminated row leaves the reduced problem.
  EXPECT_GE(r.stats().colsFixed, 1);
  EXPECT_GE(r.stats().substitutions, 1);
  EXPECT_GE(r.stats().rowsRemoved, 2);
  EXPECT_LT(r.reduced().constraints().size(), p.constraints().size());

  const Solution raw = solve(p, noPresolve());
  const Solution reduced = solve(p);  // presolve on by default
  ASSERT_EQ(raw.status, SolveStatus::Optimal);
  ASSERT_EQ(reduced.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(raw.objective, 82.0);
  EXPECT_DOUBLE_EQ(reduced.objective, 82.0);
  EXPECT_TRUE(p.isFeasiblePoint(reduced.values));
  EXPECT_GT(reduced.presolve.rowsRemoved, 0);
  EXPECT_EQ(raw.presolve, PresolveStats{});
}

TEST(Presolve, PostsolveValuesSatisfyEveryOriginalRow) {
  const Problem p = diamondWithLoop();
  const Reduction r = Reduction::reduce(p, SimplexOptions{});
  const Solution sol = solve(r.reduced(), noPresolve());
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  const std::vector<double> original = r.postsolveValues(sol.values);
  ASSERT_EQ(original.size(), static_cast<std::size_t>(p.numVars()));
  EXPECT_TRUE(p.isFeasiblePoint(original));
  EXPECT_DOUBLE_EQ(p.objective().evaluate(original), 82.0);
}

TEST(Presolve, AllFixedProblemSolvesWithoutSimplexWork) {
  // Every variable is pinned by the reductions: x0 = 1 directly, x1 by
  // substitution through the equality.  The reduced problem is empty.
  Problem p;
  p.addVar("x0");
  p.addVar("x1");
  p.setObjective(expr({{0, 2.0}, {1, 3.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}}), Relation::Equal, 1.0);
  p.addConstraint(expr({{1, 1.0}, {0, -4.0}}), Relation::Equal, 0.0);

  const Solution reduced = solve(p);
  const Solution raw = solve(p, noPresolve());
  ASSERT_EQ(reduced.status, SolveStatus::Optimal);
  ASSERT_EQ(raw.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(reduced.objective, raw.objective);
  EXPECT_DOUBLE_EQ(reduced.objective, 14.0);
  ASSERT_EQ(reduced.values.size(), 2u);
  EXPECT_DOUBLE_EQ(reduced.values[0], 1.0);
  EXPECT_DOUBLE_EQ(reduced.values[1], 4.0);
  EXPECT_EQ(reduced.pivots, 0);
  EXPECT_TRUE(Reduction::reduce(p, SimplexOptions{})
                  .reduced()
                  .constraints()
                  .empty());
}

TEST(Presolve, ContradictoryDuplicatesProveInfeasibility) {
  Problem p;
  p.addVar("x0");
  p.addVar("x1");
  p.setObjective(expr({{0, 1.0}, {1, 1.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}, {1, 2.0}}), Relation::Equal, 3.0);
  p.addConstraint(expr({{0, 1.0}, {1, 2.0}}), Relation::Equal, 5.0);

  const Reduction r = Reduction::reduce(p, SimplexOptions{});
  EXPECT_TRUE(r.provedInfeasible());
  EXPECT_EQ(solve(p).status, SolveStatus::Infeasible);
  EXPECT_EQ(solve(p, noPresolve()).status, SolveStatus::Infeasible);
}

TEST(Presolve, ContradictionStopsDuplicateCollapseInRowOrder) {
  // Duplicate groups collapse in (relation, terms) order, so the <=
  // twins at rows 2-3 are merged before the contradictory Equal twins at
  // rows 0-1 end the pass — whatever order the rows were written in.
  Problem p;
  p.addVar("x0");
  p.addVar("x1");
  p.setObjective(expr({{0, 1.0}, {1, 1.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}, {1, 2.0}}), Relation::Equal, 3.0);
  p.addConstraint(expr({{0, 1.0}, {1, 2.0}}), Relation::Equal, 5.0);
  p.addConstraint(expr({{0, 1.0}, {1, 1.0}}), Relation::LessEq, 3.0);
  p.addConstraint(expr({{0, 1.0}, {1, 1.0}}), Relation::LessEq, 3.0);

  const Reduction r = Reduction::reduce(p, SimplexOptions{});
  EXPECT_TRUE(r.provedInfeasible());
  EXPECT_EQ(r.stats().rowsRemoved, 1);
  EXPECT_EQ(solve(p, noPresolve()).status, SolveStatus::Infeasible);
}

/// max v subject to v - a = 0 and `carriers` rows v + y_i <= 10.
Problem substitutionFanOut(int carriers) {
  Problem p;
  p.addVar("v");
  p.addVar("a");
  for (int i = 0; i < carriers; ++i) p.addVar("y" + std::to_string(i));
  p.setObjective(expr({{0, 1.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}, {1, -1.0}}), Relation::Equal, 0.0);
  for (int i = 0; i < carriers; ++i) {
    p.addConstraint(expr({{0, 1.0}, {2 + i, 1.0}}), Relation::LessEq, 10.0);
  }
  return p;
}

TEST(Presolve, SubstitutionFillInCapIsSixteenOtherRows) {
  const Problem at = substitutionFanOut(16);
  const Reduction r16 = Reduction::reduce(at, SimplexOptions{});
  EXPECT_EQ(r16.stats().substitutions, 1);
  EXPECT_EQ(r16.reduced().constraints().size(), 16u);

  const Problem over = substitutionFanOut(17);
  const Reduction r17 = Reduction::reduce(over, SimplexOptions{});
  EXPECT_EQ(r17.stats().substitutions, 0);
  EXPECT_FALSE(r17.effective());

  for (const Problem* p : {&at, &over}) {
    EXPECT_DOUBLE_EQ(solve(*p).objective, 10.0);
    EXPECT_DOUBLE_EQ(solve(*p, noPresolve()).objective, 10.0);
  }
}

TEST(Presolve, FillInVariableIsSubstitutedLater) {
  // v = w puts w into row 1, which lacked it; w = z must then rewrite
  // row 1 too, leaving z + y <= 5 as the only row.
  Problem p;
  for (const char* name : {"v", "w", "z", "y"}) p.addVar(name);
  p.setObjective(expr({{0, 1.0}, {3, 1.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}, {1, -1.0}}), Relation::Equal, 0.0);
  p.addConstraint(expr({{0, 1.0}, {3, 1.0}}), Relation::LessEq, 5.0);
  p.addConstraint(expr({{1, 1.0}, {2, -1.0}}), Relation::Equal, 0.0);

  const Reduction r = Reduction::reduce(p, SimplexOptions{});
  EXPECT_EQ(r.stats().substitutions, 2);
  ASSERT_EQ(r.reduced().numVars(), 2);
  EXPECT_EQ(r.reduced().varName(0), "z");
  EXPECT_EQ(r.reduced().varName(1), "y");
  ASSERT_EQ(r.reduced().constraints().size(), 1u);
  EXPECT_EQ(r.reduced().constraints()[0].expr.terms(),
            (std::vector<Term>{{0, 1.0}, {1, 1.0}}));

  const Solution reduced = solve(p);
  ASSERT_EQ(reduced.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(reduced.objective, 5.0);
  EXPECT_DOUBLE_EQ(solve(p, noPresolve()).objective, 5.0);
  EXPECT_TRUE(p.isFeasiblePoint(reduced.values));
}

TEST(Presolve, CancelledTermReappearsAndIsSubstitutedOnce) {
  // v = a cancels a out of row 1; u = a brings it back; a = z must
  // rewrite row 1 exactly once.
  Problem p;
  for (const char* name : {"u", "v", "a", "b", "z"}) p.addVar(name);
  p.setObjective(expr({{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0}}),
                 Sense::Maximize);
  p.addConstraint(expr({{1, 1.0}, {2, -1.0}}), Relation::Equal, 0.0);
  p.addConstraint(expr({{1, 1.0}, {2, -1.0}, {0, 1.0}, {3, 1.0}}),
                  Relation::LessEq, 7.0);
  p.addConstraint(expr({{0, 1.0}, {2, -1.0}}), Relation::Equal, 0.0);
  p.addConstraint(expr({{2, 1.0}, {4, -1.0}}), Relation::Equal, 0.0);

  const Reduction r = Reduction::reduce(p, SimplexOptions{});
  EXPECT_EQ(r.stats().substitutions, 3);
  ASSERT_EQ(r.reduced().numVars(), 2);
  EXPECT_EQ(r.reduced().varName(0), "b");
  EXPECT_EQ(r.reduced().varName(1), "z");
  ASSERT_EQ(r.reduced().constraints().size(), 1u);
  EXPECT_EQ(r.reduced().constraints()[0].expr.terms(),
            (std::vector<Term>{{0, 1.0}, {1, 1.0}}));
  EXPECT_DOUBLE_EQ(r.reduced().constraints()[0].rhs, 7.0);

  const Solution reduced = solve(p);
  ASSERT_EQ(reduced.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(reduced.objective, solve(p, noPresolve()).objective);
  EXPECT_TRUE(p.isFeasiblePoint(reduced.values));
}

TEST(Presolve, IdenticalRowsKeepTheTightestAndTheBound) {
  // Three x0 <= 4 rows, the first the upper-bound source; three
  // x0 + x1 rows with rhs 6, 5, 5.  The survivors are the bound source
  // and the first of the two tightest twins.
  Problem p;
  p.addVar("x0");
  p.addVar("x1");
  p.setObjective(expr({{0, 3.0}, {1, 1.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}}), Relation::LessEq, 4.0);
  p.addConstraint(expr({{0, 1.0}}), Relation::LessEq, 4.0);
  p.addConstraint(expr({{0, 1.0}, {1, 1.0}}), Relation::LessEq, 6.0);
  p.addConstraint(expr({{0, 1.0}, {1, 1.0}}), Relation::LessEq, 5.0);
  p.addConstraint(expr({{0, 1.0}, {1, 1.0}}), Relation::LessEq, 5.0);
  p.addConstraint(expr({{0, 1.0}}), Relation::LessEq, 4.0);

  const Reduction r = Reduction::reduce(p, SimplexOptions{});
  EXPECT_EQ(r.stats().rowsRemoved, 4);
  const auto& rows = r.reduced().constraints();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].expr.terms(), (std::vector<Term>{{0, 1.0}}));
  EXPECT_DOUBLE_EQ(rows[0].rhs, 4.0);
  EXPECT_DOUBLE_EQ(rows[1].rhs, 5.0);

  // The bound still binds: x0 = 4, x1 = 1.
  const Solution reduced = solve(p);
  ASSERT_EQ(reduced.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(reduced.objective, 13.0);
  EXPECT_DOUBLE_EQ(solve(p, noPresolve()).objective, 13.0);
}

TEST(Presolve, UnboundedVerdictAgreesWithRawSolve) {
  Problem p;
  p.addVar("x0");
  p.addVar("x1");
  p.setObjective(expr({{0, 1.0}, {1, 1.0}}), Sense::Maximize);
  p.addConstraint(expr({{0, 1.0}}), Relation::Equal, 1.0);
  // x1 unconstrained above.
  p.addConstraint(expr({{1, 1.0}}), Relation::GreaterEq, 2.0);

  EXPECT_EQ(solve(p).status, SolveStatus::Unbounded);
  EXPECT_EQ(solve(p, noPresolve()).status, SolveStatus::Unbounded);
}

TEST(Presolve, DisabledOptionLeavesProblemUntouched) {
  const Problem p = diamondWithLoop();
  const Solution raw = solve(p, noPresolve());
  ASSERT_EQ(raw.status, SolveStatus::Optimal);
  EXPECT_EQ(raw.presolve.rowsRemoved, 0);
  EXPECT_EQ(raw.presolve.colsFixed, 0);
  EXPECT_EQ(raw.presolve.substitutions, 0);
  EXPECT_GT(raw.pivots, 0);
}

}  // namespace
}  // namespace cinderella::lp
