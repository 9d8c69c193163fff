// lp::LiveTableau: one tableau answers a feasibility probe and then
// several objectives over the same rows, each primal simplex run
// continuing from the previous optimum.  Every answer must be the answer
// of a cold lp::solve, and every way a live step can fail — an exhausted
// pivot budget, a stalled simplex loop, a failed feasibility audit, an
// injected pivot fault — must land on the from-scratch fallback and
// still return the cold result.
// The same holds for lp::BranchPoint, which dives from a copy of the
// live tableau one cut row at a time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"
#include "cinderella/lp/tableau.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"

namespace cinderella::lp {

struct LiveTableauInspector {
  /// Leaves the live tableau no pivots for its next phase.
  static void exhaustBudget(LiveTableau& live) {
    live.tableau_->opt_.maxPivots = 0;
  }
  /// Drives row `row`'s right-hand side far below zero, so the next
  /// claimed optimum fails the feasibility audit.
  static void breakRow(LiveTableau& live, int row) {
    live.tableau_->rhs_[static_cast<std::size_t>(row)] = -1000.0;
  }
  /// Makes the live tableau's next pivot a stall.
  static void forceStall(LiveTableau& live) {
    live.tableau_->stallLimit_ = 0;
  }
  static bool retired(const LiveTableau& live) {
    return live.tableau_ == nullptr;
  }
  /// Leaves the branch point's copy no pivots for its next dive.
  static void exhaustBudget(BranchPoint& branch) {
    branch.tableau_->opt_.maxPivots = 0;
  }
  /// Drives row `row` of the copy far below zero and loosens its
  /// tolerance past that, so the next dive's simplex runs accept the
  /// broken row and only the feasibility audit can catch it.
  static void breakRow(BranchPoint& branch, int row) {
    branch.tableau_->rhs_[static_cast<std::size_t>(row)] = -1000.0;
    branch.tableau_->opt_.tol = 1e4;
  }
  /// Makes the copy's next pivot a stall.
  static void forceStall(BranchPoint& branch) {
    branch.tableau_->stallLimit_ = 0;
  }
  static bool retired(const BranchPoint& branch) {
    return branch.tableau_ == nullptr;
  }
};

namespace {

using LTI = LiveTableauInspector;

constexpr PivotRule kRules[] = {PivotRule::Devex, PivotRule::Dantzig,
                                PivotRule::Bland};

struct RandomSystem {
  Problem a;  ///< The rows under objective A.
  Problem b;  ///< The same rows under objective B.
};

/// Mixed LessEq/GreaterEq/Equal rows over a box, so the sample holds
/// feasible and infeasible instances, and slack bases that are already
/// feasible and ones the dual simplex has to repair, with two random
/// objectives of random sense.
RandomSystem randomSystem(std::mt19937& rng) {
  std::uniform_int_distribution<int> size(2, 10);
  std::uniform_int_distribution<int> coeff(-3, 3);
  std::uniform_int_distribution<int> rhs(-4, 12);
  std::uniform_int_distribution<int> rel(0, 2);
  std::uniform_int_distribution<int> cost(-3, 6);
  std::bernoulli_distribution present(0.45);
  std::bernoulli_distribution maximize(0.5);
  Problem p;
  const int n = size(rng);
  const int m = size(rng);
  for (int v = 0; v < n; ++v) p.addVar();
  for (int i = 0; i < m; ++i) {
    LinearExpr e;
    for (int v = 0; v < n; ++v) {
      const int c = coeff(rng);
      if (c != 0 && present(rng)) e.add(v, c);
    }
    p.addConstraint(std::move(e), static_cast<Relation>(rel(rng)), rhs(rng));
  }
  for (int v = 0; v < n; ++v) {
    LinearExpr e;
    e.add(v, 1.0);
    p.addConstraint(std::move(e), Relation::LessEq, 10);
  }
  auto objective = [&] {
    LinearExpr e;
    for (int v = 0; v < n; ++v) e.add(v, cost(rng));
    return e;
  };
  RandomSystem out{p, p};
  out.a.setObjective(objective(),
                     maximize(rng) ? Sense::Maximize : Sense::Minimize);
  out.b.setObjective(objective(),
                     maximize(rng) ? Sense::Maximize : Sense::Minimize);
  return out;
}

/// The live answer matches the cold one: same status, and within
/// tolerance the same optimum at a point feasible for `problem`.
void expectColdAnswer(const Problem& problem, const Solution& live,
                      const Solution& cold) {
  ASSERT_EQ(live.status, cold.status);
  if (cold.status != SolveStatus::Optimal) return;
  EXPECT_NEAR(live.objective, cold.objective,
              1e-6 * std::max(1.0, std::abs(cold.objective)));
  EXPECT_TRUE(problem.isFeasiblePoint(live.values));
}

TEST(LiveTableau, ProbeThenTwoObjectivesMatchColdSolvesOn200Problems) {
  std::mt19937 rng(20261017);
  int feasible = 0;
  int infeasible = 0;
  for (int k = 0; k < 200; ++k) {
    const RandomSystem s = randomSystem(rng);
    for (const PivotRule rule : kRules) {
      SCOPED_TRACE(testing::Message() << "problem " << k << " rule "
                                      << pivotRuleStr(rule));
      SimplexOptions options;
      options.pivotRule = rule;
      const Solution coldA = solve(s.a, options);
      const Solution coldB = solve(s.b, options);
      LiveTableau live(s.a, options);
      const Solution probe = live.feasibility();
      EXPECT_EQ(probe.status == SolveStatus::Infeasible,
                coldA.status == SolveStatus::Infeasible);
      expectColdAnswer(s.a, live.solve(s.a), coldA);
      expectColdAnswer(s.b, live.solve(s.b), coldB);
      if (rule == PivotRule::Devex) {
        feasible += probe.status == SolveStatus::Optimal ? 1 : 0;
        infeasible += probe.status == SolveStatus::Infeasible ? 1 : 0;
      }
    }
  }
  // The sample exercises both verdicts, not just one.
  EXPECT_GT(feasible, 20);
  EXPECT_GT(infeasible, 20);
}

TEST(LiveTableau, WithoutProbeFirstSolveDecidesFeasibility) {
  std::mt19937 rng(11);
  for (int k = 0; k < 50; ++k) {
    const RandomSystem s = randomSystem(rng);
    LiveTableau live(s.b, SimplexOptions{});
    expectColdAnswer(s.b, live.solve(s.b), solve(s.b));
    expectColdAnswer(s.a, live.solve(s.a), solve(s.a));
  }
}

/// An IPET-shaped diamond: entry pinned to 1, flowing through a (cost
/// 7) or b (cost 3) into the join.
Problem flowDiamond() {
  Problem p;
  const int entry = p.addVar("entry");
  const int a = p.addVar("a");
  const int b = p.addVar("b");
  const int join = p.addVar("join");
  LinearExpr e1;
  e1.add(entry, 1.0);
  p.addConstraint(std::move(e1), Relation::Equal, 1.0);
  LinearExpr e2;
  e2.add(entry, 1.0);
  e2.add(a, -1.0);
  e2.add(b, -1.0);
  p.addConstraint(std::move(e2), Relation::Equal, 0.0);
  LinearExpr e3;
  e3.add(join, 1.0);
  e3.add(a, -1.0);
  e3.add(b, -1.0);
  p.addConstraint(std::move(e3), Relation::Equal, 0.0);
  LinearExpr obj;
  obj.add(a, 7.0);
  obj.add(b, 3.0);
  p.setObjective(obj, Sense::Maximize);
  return p;
}

TEST(WarmStart, RepricedObjectiveOverSharedBasis) {
  // The analyzer solves the same rows under the worst-case objective,
  // then the best-case one from the worst case's optimal basis: no rows
  // change, only the objective is repriced.  Both with and without
  // presolve, the answers are the cold ones and the tableau stays live.
  for (const bool presolve : {true, false}) {
    SCOPED_TRACE(presolve);
    SimplexOptions options;
    options.presolve = presolve;
    const Problem worst = flowDiamond();
    Problem best = worst;
    best.setObjective(worst.objective(), Sense::Minimize);

    LiveTableau live(worst, options);
    const Solution max = live.solve(worst);
    ASSERT_EQ(max.status, SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(max.objective, 7.0);
    const Solution min = live.solve(best);
    ASSERT_EQ(min.status, SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(min.objective, solve(best, options).objective);
    EXPECT_DOUBLE_EQ(min.objective, 3.0);
    EXPECT_FALSE(min.blandRestart);
    EXPECT_FALSE(LTI::retired(live));
    // Asking again continues from an optimal basis: no pivots at all.
    EXPECT_EQ(live.solve(best).pivots, 0);
  }
}

/// Feasible random systems, each with a trailing all-zero row `0 <= 5`
/// that no pivot ever touches.  The failure tests solve them with
/// presolve off, so the tableau's rows are the problem's own and the
/// inspector can address that last row.
std::vector<RandomSystem> feasibleCases(int count) {
  std::mt19937 rng(99);
  std::vector<RandomSystem> out;
  SimplexOptions cold;
  cold.presolve = false;
  while (static_cast<int>(out.size()) < count) {
    RandomSystem s = randomSystem(rng);
    s.a.addConstraint(LinearExpr{}, Relation::LessEq, 5);
    s.b.addConstraint(LinearExpr{}, Relation::LessEq, 5);
    if (solve(s.a, cold).status == SolveStatus::Infeasible) continue;
    out.push_back(std::move(s));
  }
  return out;
}

TEST(LiveTableau, ExhaustedPivotBudgetFallsBackToTheColdResult) {
  for (const PivotRule rule : kRules) {
    SimplexOptions options;
    options.pivotRule = rule;
    options.presolve = false;
    int k = 0;
    for (const RandomSystem& c : feasibleCases(200)) {
      SCOPED_TRACE(testing::Message() << "case " << k++ << " rule "
                                      << pivotRuleStr(rule));
      LiveTableau live(c.a, options);
      ASSERT_EQ(live.feasibility().status, SolveStatus::Optimal);
      expectColdAnswer(c.a, live.solve(c.a), solve(c.a, options));
      LTI::exhaustBudget(live);
      const Solution b = live.solve(c.b);
      EXPECT_TRUE(LTI::retired(live));
      EXPECT_TRUE(b.blandRestart);
      expectColdAnswer(c.b, b, solve(c.b, options));
      // Later answers come from scratch, and stay the cold ones.
      expectColdAnswer(c.a, live.solve(c.a), solve(c.a, options));
    }
  }
}

TEST(LiveTableau, FailedFeasibilityAuditFallsBackToTheColdResult) {
  for (const PivotRule rule : kRules) {
    SimplexOptions options;
    options.pivotRule = rule;
    options.presolve = false;
    int k = 0;
    for (const RandomSystem& c : feasibleCases(200)) {
      SCOPED_TRACE(testing::Message() << "case " << k++ << " rule "
                                      << pivotRuleStr(rule));
      LiveTableau live(c.a, options);
      ASSERT_EQ(live.feasibility().status, SolveStatus::Optimal);
      LTI::breakRow(live, static_cast<int>(c.a.constraints().size()) - 1);
      const Solution b = live.solve(c.b);
      EXPECT_TRUE(LTI::retired(live));
      EXPECT_TRUE(b.blandRestart);
      expectColdAnswer(c.b, b, solve(c.b, options));
    }
  }
}

/// True when some row of `p` is violated at its slack basis, so that
/// the feasibility run must pivot.
bool slackBasisViolated(const Problem& p) {
  const double tol = SimplexOptions{}.tol;
  for (const Constraint& c : p.constraints()) {
    const double r = c.rhs;
    if (c.rel == Relation::LessEq ? r < -tol
        : c.rel == Relation::GreaterEq ? r > tol
                                       : std::abs(r) > tol) {
      return true;
    }
  }
  return false;
}

TEST(LiveTableau, StalledFeasibilityRunFallsBackToTheColdResult) {
  SimplexOptions options;
  options.presolve = false;
  int stalled = 0;
  int k = 0;
  for (const RandomSystem& c : feasibleCases(200)) {
    SCOPED_TRACE(testing::Message() << "case " << k++);
    LiveTableau live(c.a, options);
    LTI::forceStall(live);
    const Solution probe = live.feasibility();
    EXPECT_EQ(probe.status, SolveStatus::Optimal);
    // The dual loop pivots only from a violated slack basis; its first
    // pivot is the stall.
    const bool violated = slackBasisViolated(c.a);
    EXPECT_EQ(LTI::retired(live), violated);
    EXPECT_EQ(probe.blandRestart, violated);
    stalled += violated ? 1 : 0;
    expectColdAnswer(c.a, live.solve(c.a), solve(c.a, options));
    expectColdAnswer(c.b, live.solve(c.b), solve(c.b, options));
  }
  EXPECT_GT(stalled, 100);
}

TEST(LiveTableau, InjectedPivotFaultFallsBackToTheColdResult) {
  using support::FaultInjector;
  using support::FaultPlan;
  using support::FaultSite;
  // A plan whose first pivot decision faults: that is the first pivot
  // of the live phase, and the fallback's own pivots must then get
  // through.  Plans are tried in seed order until one does.
  auto planWithSeed = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.lpPivotRate = 0.02;
    return plan;
  };
  int checked = 0;
  int k = 0;
  for (const RandomSystem& c : feasibleCases(40)) {
    SCOPED_TRACE(testing::Message() << "case " << k++);
    SimplexOptions options;
    options.presolve = false;
    const Solution cold = solve(c.b, options);
    for (std::uint64_t seed = 1; seed < 20000; ++seed) {
      const FaultPlan plan = planWithSeed(seed);
      FaultInjector predictor{plan};
      if (!predictor.shouldFault(FaultSite::LpPivot)) continue;
      LiveTableau live(c.a, options);
      ASSERT_EQ(live.feasibility().status, SolveStatus::Optimal);
      FaultInjector injector{plan};
      std::optional<Solution> b;
      {
        support::ScopedFaultInjector install(&injector);
        try {
          b = live.solve(c.b);
        } catch (const InjectedFaultError&) {
          // The fallback faulted too: try the next plan.
        }
      }
      if (!b) continue;
      if (injector.injected(FaultSite::LpPivot) == 0) break;  // no pivot
      EXPECT_TRUE(LTI::retired(live));
      EXPECT_TRUE(b->blandRestart);
      expectColdAnswer(c.b, *b, cold);
      ++checked;
      break;
    }
  }
  EXPECT_GT(checked, 10);
}

/// A random branch-and-bound style cut on `values`: x_v <= floor or
/// x_v >= ceil of its value, or one step past that, which cuts off
/// integral values too and drives some stacks infeasible.
Constraint randomCut(std::mt19937& rng, const std::vector<double>& values) {
  std::uniform_int_distribution<std::size_t> pick(0, values.size() - 1);
  std::bernoulli_distribution down(0.5);
  std::bernoulli_distribution past(0.25);
  const std::size_t var = pick(rng);
  const double x = values[var];
  LinearExpr e;
  e.add(static_cast<int>(var), 1.0);
  const double step = past(rng) ? 1.0 : 0.0;
  if (down(rng)) return {std::move(e), Relation::LessEq, std::floor(x) - step};
  return {std::move(e), Relation::GreaterEq, std::ceil(x) + step};
}

TEST(BranchPoint, CutStacksMatchColdSolvesOn200Problems) {
  std::mt19937 rng(777);
  std::uniform_int_distribution<int> depth(1, 4);
  int dives = 0;
  int confirmed = 0;
  int problems = 0;
  for (int k = 0; problems < 200; ++k) {
    const RandomSystem s = randomSystem(rng);
    if (solve(s.a).status != SolveStatus::Optimal) continue;
    ++problems;
    for (const bool presolve : {true, false}) {
      SCOPED_TRACE(testing::Message() << "problem " << k << " presolve "
                                      << presolve);
      SimplexOptions options;
      options.presolve = presolve;
      LiveTableau live(s.a, options);
      Solution at = live.solve(s.a);
      ASSERT_EQ(at.status, SolveStatus::Optimal);
      BranchPoint branch = live.branch(s.a);
      Problem work = s.a;
      for (int d = depth(rng); d > 0; --d) {
        const Constraint c = randomCut(rng, at.values);
        work.addConstraint(c);
        at = branch.cut(c.expr.terms()[0].var, c.rel, c.rhs);
        expectColdAnswer(work, at, solve(work, options));
        // The dive's own verdict, before any cold confirmation, agrees
        // with the cold one.
        if (branch.lastAnswer() == BranchPoint::Answer::Confirmed) {
          EXPECT_EQ(at.status, SolveStatus::Infeasible);
          ++confirmed;
        } else {
          EXPECT_EQ(branch.lastAnswer(), BranchPoint::Answer::Dive);
          ++dives;
        }
        if (at.status != SolveStatus::Optimal) break;
      }
    }
  }
  // Both outcomes of a dive are exercised.
  EXPECT_GT(dives, 400);
  EXPECT_GT(confirmed, 40);
}

TEST(BranchPoint, ChildrenLeaveTheLiveTableauUntouched) {
  // The worst side's children dive on copies; the best side's root then
  // continues from the worst optimum exactly as on a tableau that never
  // branched.
  std::mt19937 rng(4242);
  int checked = 0;
  for (const RandomSystem& c : feasibleCases(100)) {
    LiveTableau live(c.a, SimplexOptions{});
    LiveTableau fresh(c.a, SimplexOptions{});
    const Solution root = live.solve(c.a);
    (void)fresh.solve(c.a);
    BranchPoint first = live.branch(c.a);
    BranchPoint second = first;
    const Constraint down = randomCut(rng, root.values);
    (void)first.cut(down.expr.terms()[0].var, down.rel, down.rhs);
    (void)second.cut(down.expr.terms()[0].var, Relation::GreaterEq,
                     down.rhs + 1.0);
    const Solution best = live.solve(c.b);
    const Solution expected = fresh.solve(c.b);
    ASSERT_EQ(best.status, expected.status);
    EXPECT_EQ(best.objective, expected.objective);
    EXPECT_EQ(best.values, expected.values);
    EXPECT_EQ(best.pivots, expected.pivots);
    checked += best.status == SolveStatus::Optimal ? 1 : 0;
  }
  EXPECT_GT(checked, 50);
}

/// Runs `force` on a branch point at the optimum of each feasible case,
/// cuts once, and checks that the failed dive was answered cold, with
/// the cold result.
template <typename Force>
void expectFallbackToCold(Force force) {
  std::mt19937 rng(31337);
  for (const bool presolve : {true, false}) {
    SimplexOptions options;
    options.presolve = presolve;
    int k = 0;
    for (const RandomSystem& c : feasibleCases(100)) {
      SCOPED_TRACE(testing::Message() << "case " << k++ << " presolve "
                                      << presolve);
      LiveTableau live(c.a, options);
      const Solution root = live.solve(c.a);
      BranchPoint branch = live.branch(c.a);
      force(branch, c.a);
      const Constraint cut = randomCut(rng, root.values);
      Problem work = c.a;
      work.addConstraint(cut);
      const Solution child =
          branch.cut(cut.expr.terms()[0].var, cut.rel, cut.rhs);
      EXPECT_EQ(branch.lastAnswer(), BranchPoint::Answer::Fallback);
      EXPECT_TRUE(LTI::retired(branch));
      expectColdAnswer(work, child, solve(work, options));
      // The subtree below is answered cold as well.
      if (child.status != SolveStatus::Optimal) continue;
      const Constraint next = randomCut(rng, child.values);
      work.addConstraint(next);
      expectColdAnswer(work,
                       branch.cut(next.expr.terms()[0].var, next.rel,
                                  next.rhs),
                       solve(work, options));
      EXPECT_EQ(branch.lastAnswer(), BranchPoint::Answer::Cold);
    }
  }
}

TEST(BranchPoint, ExhaustedPivotBudgetFallsBackToTheColdResult) {
  expectFallbackToCold(
      [](BranchPoint& branch, const Problem&) { LTI::exhaustBudget(branch); });
}

TEST(BranchPoint, FailedFeasibilityAuditFallsBackToTheColdResult) {
  // With presolve on, the trailing `0 <= 5` row is dropped; break the
  // copy's first row instead, which every case has.
  expectFallbackToCold(
      [](BranchPoint& branch, const Problem&) { LTI::breakRow(branch, 0); });
}

TEST(BranchPoint, StalledDiveFallsBackToTheColdResult) {
  // Each cut lies at least half a step past the optimum's value, so it
  // is violated and the dive's dual loop either pivots, which is the
  // stall, or finds no entering column and has its infeasible verdict
  // confirmed.
  std::mt19937 rng(8086);
  int fallbacks = 0;
  for (const bool presolve : {true, false}) {
    SimplexOptions options;
    options.presolve = presolve;
    int k = 0;
    for (const RandomSystem& c : feasibleCases(100)) {
      SCOPED_TRACE(testing::Message() << "case " << k++ << " presolve "
                                      << presolve);
      LiveTableau live(c.a, options);
      const Solution root = live.solve(c.a);
      ASSERT_EQ(root.status, SolveStatus::Optimal);
      BranchPoint branch = live.branch(c.a);
      LTI::forceStall(branch);
      std::uniform_int_distribution<std::size_t> pick(0,
                                                      root.values.size() - 1);
      const std::size_t var = pick(rng);
      const double bound = std::round(root.values[var]) + 1.0;
      Problem work = c.a;
      LinearExpr e;
      e.add(static_cast<int>(var), 1.0);
      work.addConstraint(std::move(e), Relation::GreaterEq, bound);
      const Solution child =
          branch.cut(static_cast<int>(var), Relation::GreaterEq, bound);
      EXPECT_NE(branch.lastAnswer(), BranchPoint::Answer::Dive);
      EXPECT_TRUE(LTI::retired(branch));
      expectColdAnswer(work, child, solve(work, options));
      fallbacks +=
          branch.lastAnswer() == BranchPoint::Answer::Fallback ? 1 : 0;
    }
  }
  EXPECT_GT(fallbacks, 100);
}

TEST(BranchPoint, InjectedPivotFaultFallsBackToTheColdResult) {
  using support::FaultInjector;
  using support::FaultPlan;
  using support::FaultSite;
  std::mt19937 rng(5150);
  int checked = 0;
  int k = 0;
  for (const RandomSystem& c : feasibleCases(100)) {
    SCOPED_TRACE(testing::Message() << "case " << k++);
    LiveTableau live(c.a, SimplexOptions{});
    const Solution root = live.solve(c.a);
    const Constraint cut = randomCut(rng, root.values);
    Problem work = c.a;
    work.addConstraint(cut);
    const Solution cold = solve(work);
    // Plans are tried in seed order until one faults inside the dive and
    // lets the cold solve through.
    for (std::uint64_t seed = 1; seed < 20000; ++seed) {
      FaultPlan plan;
      plan.seed = seed;
      plan.lpPivotRate = 0.05;
      FaultInjector predictor{plan};
      if (!predictor.shouldFault(FaultSite::LpPivot)) continue;
      BranchPoint branch = live.branch(c.a);
      FaultInjector injector{plan};
      std::optional<Solution> child;
      {
        support::ScopedFaultInjector install(&injector);
        try {
          child = branch.cut(cut.expr.terms()[0].var, cut.rel, cut.rhs);
        } catch (const InjectedFaultError&) {
          // The cold solve faulted too: try the next plan.
        }
      }
      if (!child) continue;
      if (injector.injected(FaultSite::LpPivot) == 0) break;  // no pivot
      EXPECT_EQ(branch.lastAnswer(), BranchPoint::Answer::Fallback);
      EXPECT_TRUE(LTI::retired(branch));
      expectColdAnswer(work, *child, cold);
      ++checked;
      break;
    }
  }
  EXPECT_GT(checked, 10);
}

}  // namespace
}  // namespace cinderella::lp
