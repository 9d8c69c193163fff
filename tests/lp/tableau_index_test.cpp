// The tableau's layout and column index.  A pivot and the ratio test
// visit only the rows carrying the column, read off pooled per-column
// link lists that grow on fill-in and drop stale links when read.  These
// tests pin the list maintenance directly, check the slack-basis
// feasibility run on the row shapes it has to handle, and compare whole
// solves against dense reference tableaus that visit every row on every
// pivot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/tableau.hpp"

namespace cinderella::lp {

struct TableauInspector {
  /// Rows the index yields for `col`, ascending.
  static std::vector<int> carrierRows(Tableau& t, int col) {
    t.gatherCarriers(col);
    std::vector<int> rows;
    for (const Tableau::Carrier& c : t.carriers_) rows.push_back(c.row);
    std::sort(rows.begin(), rows.end());
    return rows;
  }
  /// Links currently on `col`'s list, stale ones included.
  static int links(const Tableau& t, int col) {
    return t.colIndex_.listLength(col);
  }
  /// Rows holding a nonzero in `col`, by scanning every row.
  static std::vector<int> scannedRows(const Tableau& t, int col) {
    std::vector<int> rows;
    for (int i = 0; i < t.numRows(); ++i) {
      if (coeff(t, i, col) != 0.0) rows.push_back(i);
    }
    return rows;
  }
  static int numCols(const Tableau& t) { return t.numCols_; }
  /// Makes the next pivot of either simplex loop a stall.
  static void forceStall(Tableau& t) { t.stallLimit_ = 0; }
  static void pivot(Tableau& t, int row, int col) { t.pivot(row, col); }
  static double coeff(const Tableau& t, int row, int col) {
    return Tableau::rowCoeff(t.rows_[static_cast<std::size_t>(row)], col);
  }
};

namespace {

using TI = TableauInspector;

LinearExpr expr(std::initializer_list<std::pair<int, double>> terms) {
  LinearExpr e;
  for (const auto& [var, coeff] : terms) e.add(var, coeff);
  return e;
}

// Three variables; the slack of row r is column 3 + r.
constexpr int kS0 = 3;
constexpr int kS1 = 4;
constexpr int kS2 = 5;

TEST(TableauIndex, FillInRowJoinsTheCarrierList) {
  Problem p;
  for (int v = 0; v < 3; ++v) p.addVar();
  p.addConstraint(expr({{0, 1}, {1, 1}}), Relation::LessEq, 4);
  p.addConstraint(expr({{0, 1}, {2, 1}}), Relation::LessEq, 5);
  Tableau t(p, SimplexOptions{});
  EXPECT_EQ(TI::carrierRows(t, 1), (std::vector<int>{0}));
  EXPECT_EQ(TI::carrierRows(t, kS0), (std::vector<int>{0}));

  // Row 1 -= row 0: x1 and s0 fill in.
  TI::pivot(t, 0, 0);
  EXPECT_EQ(TI::coeff(t, 1, 1), -1.0);
  EXPECT_EQ(TI::coeff(t, 1, kS0), -1.0);
  EXPECT_EQ(TI::carrierRows(t, 1), (std::vector<int>{0, 1}));
  EXPECT_EQ(TI::carrierRows(t, kS0), (std::vector<int>{0, 1}));
  // x0 was eliminated from row 1: its link there is stale and dropped.
  EXPECT_EQ(TI::carrierRows(t, 0), (std::vector<int>{0}));
  EXPECT_EQ(TI::links(t, 0), 1);
}

TEST(TableauIndex, EntryThatDropsAndReappearsIsVisitedOnce) {
  Problem p;
  for (int v = 0; v < 3; ++v) p.addVar();
  p.addConstraint(expr({{0, 1}, {1, 1}}), Relation::LessEq, 4);
  p.addConstraint(expr({{0, 1}, {1, 1}, {2, 1}}), Relation::LessEq, 6);
  p.addConstraint(expr({{1, 1}, {2, 1}}), Relation::LessEq, 3);
  Tableau t(p, SimplexOptions{});

  // Row 1 -= row 0: x1 cancels exactly and leaves row 1.
  TI::pivot(t, 0, 0);
  EXPECT_EQ(TI::coeff(t, 1, 1), 0.0);
  // Row 1 -= row 2: x1 comes back by fill-in, a second link for row 1.
  TI::pivot(t, 2, 2);
  EXPECT_EQ(TI::coeff(t, 1, 1), -1.0);
  EXPECT_EQ(TI::links(t, 1), 4);
  EXPECT_EQ(TI::carrierRows(t, 1), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(TI::links(t, 1), 3);

  // Row 1 += row 0 exactly once: x0 + s1 - s2 = 3, s0 cancels.
  TI::pivot(t, 0, 1);
  EXPECT_EQ(TI::coeff(t, 1, 0), 1.0);
  EXPECT_EQ(TI::coeff(t, 1, 1), 0.0);
  EXPECT_EQ(TI::coeff(t, 1, kS0), 0.0);
  EXPECT_EQ(TI::coeff(t, 1, kS1), 1.0);
  EXPECT_EQ(TI::coeff(t, 1, kS2), -1.0);
  EXPECT_EQ(t.rowRhs(1), 3.0);
  EXPECT_EQ(t.rowRhs(2), -1.0);
}

TEST(TableauIndex, PivotOnColumnWhoseOtherLinksAreAllStale) {
  Problem p;
  for (int v = 0; v < 3; ++v) p.addVar();
  p.addConstraint(expr({{0, 2}, {1, 1}}), Relation::LessEq, 4);
  p.addConstraint(expr({{0, 1}, {2, 1}}), Relation::LessEq, 5);
  p.addConstraint(expr({{0, 3}, {2, 1}}), Relation::LessEq, 9);
  Tableau t(p, SimplexOptions{});
  TI::pivot(t, 0, 0);
  // x0 is gone from rows 1 and 2 but both links remain on its list.
  EXPECT_EQ(TI::links(t, 0), 3);
  const double rhs1 = t.rowRhs(1);
  const double rhs2 = t.rowRhs(2);
  const double s0InRow2 = TI::coeff(t, 2, kS0);

  // Pivoting x0 again in its own row touches no other row.
  TI::pivot(t, 0, 0);
  EXPECT_EQ(t.basicColumn(0), 0);
  EXPECT_EQ(TI::coeff(t, 0, 0), 1.0);
  EXPECT_EQ(t.rowRhs(0), 2.0);
  EXPECT_EQ(t.rowRhs(1), rhs1);
  EXPECT_EQ(t.rowRhs(2), rhs2);
  EXPECT_EQ(TI::coeff(t, 2, kS0), s0InRow2);
  EXPECT_EQ(TI::links(t, 0), 1);
}

// ---------------------------------------------------------------------------
// Dense references, on a matrix whose pivot visits every row.  From the
// slack basis, a reference mirrors lp::Tableau::run pivot for pivot: the
// same layout, dual feasibility loop, primal pricing, ratio tests,
// tie-breaks and drop tolerance.  With artificials, it is the textbook
// two-phase method (an artificial column for every GreaterEq and Equal
// row, phase 1 maximizing minus their sum), which decides each verdict
// without the dual loop.

constexpr double kDropTol = 1e-12;

enum class Start { SlackBasis, Artificials };

class DenseTableau {
 public:
  DenseTableau(const Problem& p, const SimplexOptions& opt, Start start)
      : opt_(opt), artificials_(start == Start::Artificials),
        n_(p.numVars()), m_(static_cast<int>(p.constraints().size())),
        cols_(n_ + (artificials_ ? 2 : 1) * m_) {
    a_.assign(static_cast<std::size_t>(m_),
              std::vector<double>(static_cast<std::size_t>(cols_), 0.0));
    rhs_.assign(static_cast<std::size_t>(m_), 0.0);
    obj_.assign(static_cast<std::size_t>(cols_), 0.0);
    exists_.assign(static_cast<std::size_t>(cols_), artificials_ ? 0 : 1);
    fixed_.assign(static_cast<std::size_t>(cols_), 0);
    basis_.assign(static_cast<std::size_t>(m_), -1);
    for (int v = 0; v < n_; ++v) exists_[static_cast<std::size_t>(v)] = 1;
    for (int i = 0; i < m_; ++i) {
      const Constraint& c = p.constraints()[static_cast<std::size_t>(i)];
      if (artificials_) {
        addWithArtificial(i, c);
        continue;
      }
      const double sign = c.rel == Relation::GreaterEq ? -1.0 : 1.0;
      for (const Term& t : c.expr.terms()) at(i, t.var) = sign * t.coeff;
      rhs_[static_cast<std::size_t>(i)] = sign * c.rhs;
      const int slack = n_ + i;
      at(i, slack) = 1.0;
      fixed_[static_cast<std::size_t>(slack)] = c.rel == Relation::Equal;
      basis_[static_cast<std::size_t>(i)] = slack;
    }
  }

  Solution run(const std::vector<double>& objective) {
    Solution solution;
    const SolveStatus st = artificials_ ? phaseOne() : feasibility();
    solution.pivots = pivots_;
    if (st != SolveStatus::Optimal) {
      solution.status = st;
      return solution;
    }
    setObjective([&](int col) {
      return col < n_ ? objective[static_cast<std::size_t>(col)] : 0.0;
    });
    solution.status = optimize(false);
    solution.pivots = pivots_;
    if (solution.status != SolveStatus::Optimal) return solution;
    double scale = 1.0;
    for (const double r : rhs_) scale = std::max(scale, std::abs(r));
    for (int i = 0; i < m_; ++i) {
      const double r = rhs_[static_cast<std::size_t>(i)];
      if (r < -1e-6 * scale ||
          (fixed_[static_cast<std::size_t>(
               basis_[static_cast<std::size_t>(i)])] &&
           r > 1e-6 * scale)) {
        solution.status = SolveStatus::IterationLimit;
        return solution;
      }
    }
    solution.objective = objRhs_;
    return solution;
  }

 private:
  /// Row `i` made rhs-nonnegative, with a slack (LessEq), a surplus and
  /// an artificial (GreaterEq) or an artificial (Equal); ids n + 2i and
  /// n + 2i + 1.
  void addWithArtificial(int i, const Constraint& c) {
    const double sign = c.rhs < 0 ? -1.0 : 1.0;
    Relation rel = c.rel;
    if (c.rhs < 0 && rel != Relation::Equal) {
      rel = rel == Relation::LessEq ? Relation::GreaterEq : Relation::LessEq;
    }
    for (const Term& t : c.expr.terms()) at(i, t.var) = sign * t.coeff;
    rhs_[static_cast<std::size_t>(i)] = sign * c.rhs;
    const int slack = n_ + 2 * i;
    const int art = slack + 1;
    if (rel == Relation::LessEq) {
      at(i, slack) = 1.0;
      exists_[static_cast<std::size_t>(slack)] = 1;
      basis_[static_cast<std::size_t>(i)] = slack;
      return;
    }
    if (rel == Relation::GreaterEq) {
      at(i, slack) = -1.0;
      exists_[static_cast<std::size_t>(slack)] = 1;
    }
    at(i, art) = 1.0;
    exists_[static_cast<std::size_t>(art)] = 1;
    basis_[static_cast<std::size_t>(i)] = art;
  }

  [[nodiscard]] bool isArtificial(int col) const {
    return artificials_ && col >= n_ && (col - n_) % 2 == 1;
  }
  double& at(int i, int j) {
    return a_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }

  template <typename Fn>
  void setObjective(Fn coeff) {
    std::fill(obj_.begin(), obj_.end(), 0.0);
    objRhs_ = 0.0;
    for (int j = 0; j < cols_; ++j) {
      const double c = coeff(j);
      if (exists_[static_cast<std::size_t>(j)] && c != 0.0) {
        obj_[static_cast<std::size_t>(j)] = -c;
      }
    }
    for (int i = 0; i < m_; ++i) {
      const double c = coeff(basis_[static_cast<std::size_t>(i)]);
      if (c == 0.0) continue;
      for (int j = 0; j < cols_; ++j) {
        if (at(i, j) != 0.0) obj_[static_cast<std::size_t>(j)] += c * at(i, j);
      }
      objRhs_ += c * rhs_[static_cast<std::size_t>(i)];
    }
  }

  void pivot(int row, int col) {
    const int leaving = basis_[static_cast<std::size_t>(row)];
    if (leaving != col && fixed_[static_cast<std::size_t>(leaving)]) {
      at(row, leaving) = 0.0;
    }
    const double inv = 1.0 / at(row, col);
    for (int j = 0; j < cols_; ++j) at(row, j) *= inv;
    at(row, col) = 1.0;
    rhs_[static_cast<std::size_t>(row)] *= inv;
    for (int i = 0; i < m_; ++i) {
      if (i == row) continue;
      const double f = at(i, col);
      if (f == 0.0) continue;
      for (int j = 0; j < cols_; ++j) {
        if (j == col || at(row, j) == 0.0) continue;
        const double v = at(i, j) == 0.0 ? -f * at(row, j)
                                         : at(i, j) - f * at(row, j);
        at(i, j) = std::abs(v) > kDropTol ? v : 0.0;
      }
      at(i, col) = 0.0;
      rhs_[static_cast<std::size_t>(i)] -=
          f * rhs_[static_cast<std::size_t>(row)];
    }
    const double objFactor = obj_[static_cast<std::size_t>(col)];
    if (objFactor != 0.0) {
      for (int j = 0; j < cols_; ++j) {
        if (at(row, j) != 0.0) {
          obj_[static_cast<std::size_t>(j)] -= objFactor * at(row, j);
        }
      }
      obj_[static_cast<std::size_t>(col)] = 0.0;
      objRhs_ -= objFactor * rhs_[static_cast<std::size_t>(row)];
    }
    basis_[static_cast<std::size_t>(row)] = col;
  }

  /// The dual simplex from the slack basis under min sum(x), then each
  /// fixed slack still basic pivoted out.
  SolveStatus feasibility() {
    setObjective([&](int col) { return col < n_ ? -1.0 : 0.0; });
    const PivotRule rule = opt_.pivotRule;
    const int stallLimit = std::max(500, m_);
    int sinceProgress = 0;
    double last = objRhs_;
    while (true) {
      if (pivots_ >= opt_.maxPivots) return SolveStatus::IterationLimit;
      int leave = -1;
      double worst = opt_.tol;
      for (int i = 0; i < m_; ++i) {
        const int b = basis_[static_cast<std::size_t>(i)];
        const double r = rhs_[static_cast<std::size_t>(i)];
        const double violation =
            fixed_[static_cast<std::size_t>(b)] ? std::abs(r) : -r;
        if (violation <= opt_.tol) continue;
        if (rule == PivotRule::Bland) {
          if (leave < 0 || b < basis_[static_cast<std::size_t>(leave)]) {
            leave = i;
          }
        } else if (violation > worst) {
          worst = violation;
          leave = i;
        }
      }
      if (leave < 0) break;
      const int leaving = basis_[static_cast<std::size_t>(leave)];
      const double toward =
          rhs_[static_cast<std::size_t>(leave)] < 0 ? -1.0 : 1.0;
      int enter = -1;
      double bestRatio = std::numeric_limits<double>::infinity();
      for (int j = 0; j < cols_; ++j) {
        const double a = toward * at(leave, j);
        if (a <= opt_.pivotTol || j == leaving) continue;
        const double ratio = obj_[static_cast<std::size_t>(j)] / a;
        if (ratio < bestRatio - opt_.tol) {
          bestRatio = ratio;
          enter = j;
        }
      }
      if (enter < 0) return SolveStatus::Infeasible;
      if (sinceProgress >= stallLimit && rule != PivotRule::Bland) {
        return SolveStatus::IterationLimit;
      }
      pivot(leave, enter);
      ++pivots_;
      if (rule != PivotRule::Bland) {
        if (objRhs_ < last - opt_.tol) {
          last = objRhs_;
          sinceProgress = 0;
        } else {
          ++sinceProgress;
        }
      }
    }
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (!fixed_[static_cast<std::size_t>(b)]) continue;
      for (int j = 0; j < cols_; ++j) {
        if (j == b || std::abs(at(i, j)) <= opt_.pivotTol) continue;
        pivot(i, j);
        ++pivots_;
        break;
      }
    }
    return SolveStatus::Optimal;
  }

  /// Phase 1: maximizes minus the sum of the artificials, then pivots
  /// each artificial still basic out.
  SolveStatus phaseOne() {
    bool anyArtificial = false;
    for (int j = 0; j < cols_; ++j) {
      anyArtificial = anyArtificial ||
                      (isArtificial(j) && exists_[static_cast<std::size_t>(j)]);
    }
    if (!anyArtificial) return SolveStatus::Optimal;
    setObjective([&](int col) { return isArtificial(col) ? -1.0 : 0.0; });
    const SolveStatus st = optimize(true);
    if (st == SolveStatus::IterationLimit) return st;
    if (objRhs_ < -opt_.tol) return SolveStatus::Infeasible;
    for (int i = 0; i < m_; ++i) {
      if (!isArtificial(basis_[static_cast<std::size_t>(i)])) continue;
      for (int j = 0; j < cols_; ++j) {
        if (isArtificial(j) || std::abs(at(i, j)) <= opt_.pivotTol) continue;
        pivot(i, j);
        ++pivots_;
        break;
      }
    }
    return SolveStatus::Optimal;
  }

  SolveStatus optimize(bool allowArtificial) {
    const PivotRule rule = opt_.pivotRule;
    if (rule == PivotRule::Devex) {
      weights_.assign(static_cast<std::size_t>(cols_), 1.0);
    }
    const int stallLimit = std::max(500, m_);
    int sinceProgress = 0;
    double last = objRhs_;
    while (true) {
      if (pivots_ >= opt_.maxPivots) return SolveStatus::IterationLimit;
      int enter = -1;
      double best = rule == PivotRule::Devex ? 0.0 : -opt_.tol;
      for (int j = 0; j < cols_; ++j) {
        if (!exists_[static_cast<std::size_t>(j)]) continue;
        if (!allowArtificial && isArtificial(j)) continue;
        const double rc = obj_[static_cast<std::size_t>(j)];
        if (rule == PivotRule::Devex) {
          if (rc >= -opt_.tol) continue;
          const double score = rc * rc / weights_[static_cast<std::size_t>(j)];
          if (score > best) {
            best = score;
            enter = j;
          }
        } else if (rule == PivotRule::Dantzig) {
          if (rc < best) {
            best = rc;
            enter = j;
          }
        } else if (rc < -opt_.tol) {
          enter = j;
          break;
        }
      }
      if (enter < 0) return SolveStatus::Optimal;

      double bestRatio = std::numeric_limits<double>::infinity();
      for (int i = 0; i < m_; ++i) {
        if (at(i, enter) <= opt_.pivotTol) continue;
        bestRatio = std::min(bestRatio, rhs_[static_cast<std::size_t>(i)] /
                                            at(i, enter));
      }
      if (bestRatio == std::numeric_limits<double>::infinity()) {
        return SolveStatus::Unbounded;
      }
      int leave = -1;
      for (int i = 0; i < m_; ++i) {
        if (at(i, enter) <= opt_.pivotTol) continue;
        const double ratio = rhs_[static_cast<std::size_t>(i)] / at(i, enter);
        if (ratio <= bestRatio + opt_.tol &&
            (leave < 0 || basis_[static_cast<std::size_t>(i)] <
                              basis_[static_cast<std::size_t>(leave)])) {
          leave = i;
        }
      }
      if (sinceProgress >= stallLimit && rule != PivotRule::Bland) {
        return SolveStatus::IterationLimit;
      }
      const double gammaQ =
          rule == PivotRule::Devex ? weights_[static_cast<std::size_t>(enter)]
                                   : 0.0;
      pivot(leave, enter);
      ++pivots_;
      if (rule != PivotRule::Bland) {
        if (objRhs_ > last + opt_.tol) {
          last = objRhs_;
          sinceProgress = 0;
        } else {
          ++sinceProgress;
        }
      }
      if (rule == PivotRule::Devex) {
        double maxWeight = 1.0;
        for (int j = 0; j < cols_; ++j) {
          if (j == enter || at(leave, j) == 0.0) continue;
          const double candidate = at(leave, j) * at(leave, j) * gammaQ;
          double& w = weights_[static_cast<std::size_t>(j)];
          if (candidate > w) w = candidate;
          if (w > maxWeight) maxWeight = w;
        }
        if (maxWeight > 1e9) {
          weights_.assign(static_cast<std::size_t>(cols_), 1.0);
        }
      }
    }
  }

  SimplexOptions opt_;
  bool artificials_;
  int n_;
  int m_;
  int cols_;
  std::vector<std::vector<double>> a_;
  std::vector<double> rhs_;
  std::vector<double> obj_;
  double objRhs_ = 0.0;
  std::vector<unsigned char> exists_;
  std::vector<unsigned char> fixed_;
  std::vector<int> basis_;
  std::vector<double> weights_;
  int pivots_ = 0;
};

Problem randomProblem(std::mt19937& rng, std::vector<double>* objective) {
  std::uniform_int_distribution<int> size(2, 12);
  std::uniform_int_distribution<int> coeff(-3, 3);
  std::uniform_int_distribution<int> rhs(-4, 12);
  std::uniform_int_distribution<int> rel(0, 2);
  std::uniform_int_distribution<int> cost(-3, 6);
  std::bernoulli_distribution present(0.45);
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
  // A box on every variable keeps most instances bounded.
  for (int v = 0; v < n; ++v) {
    LinearExpr e;
    e.add(v, 1.0);
    p.addConstraint(std::move(e), Relation::LessEq, 10);
  }
  objective->assign(static_cast<std::size_t>(n), 0.0);
  for (double& c : *objective) c = cost(rng);
  return p;
}

// ---------------------------------------------------------------------------
// Feasibility from the slack basis.

/// max x0 + x1 over `row` plus the box x0, x1 <= 5.
Problem twoVarProblem(LinearExpr row, Relation rel, double rhs) {
  Problem p;
  for (int v = 0; v < 2; ++v) p.addVar();
  p.addConstraint(std::move(row), rel, rhs);
  p.addConstraint(expr({{0, 1}}), Relation::LessEq, 5);
  p.addConstraint(expr({{1, 1}}), Relation::LessEq, 5);
  return p;
}

TEST(TableauFeasibility, GreaterEqRowWithPositiveRhsIsRepaired) {
  // x0 + x1 >= 3 is stored negated: its slack starts basic at -3.
  const Problem p =
      twoVarProblem(expr({{0, 1}, {1, 1}}), Relation::GreaterEq, 3);
  Tableau t(p, SimplexOptions{});
  EXPECT_EQ(t.basicColumn(0), 2);
  EXPECT_EQ(t.rowRhs(0), -3.0);
  ASSERT_EQ(t.feasibility(), SolveStatus::Optimal);
  EXPECT_GT(t.totalPivots(), 0);
  EXPECT_TRUE(t.primalFeasibleAtTol());
  const Solution s = t.maximize({1.0, 1.0}, 0.0);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_EQ(s.objective, 10.0);
}

TEST(TableauFeasibility, EqualRowWithNegativeRhsIsRepaired) {
  // x0 - x1 = -1: the fixed slack starts basic at -1 and must leave.
  const Problem p = twoVarProblem(expr({{0, 1}, {1, -1}}), Relation::Equal, -1);
  Tableau t(p, SimplexOptions{});
  EXPECT_EQ(t.basicColumn(0), 2);
  EXPECT_EQ(t.rowRhs(0), -1.0);
  ASSERT_EQ(t.feasibility(), SolveStatus::Optimal);
  EXPECT_NE(t.basicColumn(0), 2);
  const Solution s = t.maximize({1.0, 1.0}, 0.0);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_EQ(s.objective, 9.0);
  EXPECT_EQ(s.values, (std::vector<double>{4.0, 5.0}));
}

TEST(TableauFeasibility, LeavingEqualSlackIsDroppedFromEveryRow) {
  std::mt19937 rng(20261017);
  int dropped = 0;
  for (int k = 0; k < 200; ++k) {
    std::vector<double> objective;
    const Problem p = randomProblem(rng, &objective);
    Tableau t(p, SimplexOptions{});
    if (t.feasibility() != SolveStatus::Optimal) continue;
    std::vector<bool> basic(static_cast<std::size_t>(TI::numCols(t)));
    for (int i = 0; i < t.numRows(); ++i) {
      basic[static_cast<std::size_t>(t.basicColumn(i))] = true;
    }
    const int n = p.numVars();
    for (int r = 0; r < t.numRows(); ++r) {
      const int slack = n + r;
      if (p.constraints()[static_cast<std::size_t>(r)].rel != Relation::Equal ||
          basic[static_cast<std::size_t>(slack)]) {
        continue;
      }
      ++dropped;
      EXPECT_TRUE(TI::scannedRows(t, slack).empty())
          << "problem " << k << " row " << r;
      EXPECT_TRUE(TI::carrierRows(t, slack).empty())
          << "problem " << k << " row " << r;
    }
  }
  EXPECT_GT(dropped, 50);
}

TEST(TableauFeasibility, RedundantEqualRowKeepsItsSlackAtZero) {
  // x0 + x1 = 2, the all-zero row 0 = 0, x0 <= 1.5, max 2 x0 + x1.
  Problem p;
  for (int v = 0; v < 2; ++v) p.addVar();
  p.addConstraint(expr({{0, 1}, {1, 1}}), Relation::Equal, 2);
  p.addConstraint(LinearExpr{}, Relation::Equal, 0);
  p.addConstraint(expr({{0, 1}}), Relation::LessEq, 1.5);
  LinearExpr objective = expr({{0, 2}, {1, 1}});
  p.setObjective(objective, Sense::Maximize);

  Tableau t(p, SimplexOptions{});
  ASSERT_EQ(t.feasibility(), SolveStatus::Optimal);
  EXPECT_EQ(t.basicColumn(1), 3);
  EXPECT_EQ(t.rowRhs(1), 0.0);
  const Solution s = t.maximize({2.0, 1.0}, 0.0);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_EQ(t.basicColumn(1), 3);
  EXPECT_EQ(s.objective, 3.5);
  SimplexOptions cold;
  cold.presolve = false;
  const Solution want = solve(p, cold);
  ASSERT_EQ(want.status, SolveStatus::Optimal);
  EXPECT_EQ(s.objective, want.objective);
  EXPECT_EQ(s.values, want.values);
}

TEST(TableauFeasibility, InfeasibleEqualSystemIsReportedInfeasible) {
  // x0 + x1 = 1 and x0 + x1 = 2, which presolve would catch itself.
  Problem p;
  for (int v = 0; v < 2; ++v) p.addVar();
  p.addConstraint(expr({{0, 1}, {1, 1}}), Relation::Equal, 1);
  p.addConstraint(expr({{0, 1}, {1, 1}}), Relation::Equal, 2);
  Tableau t(p, SimplexOptions{});
  EXPECT_EQ(t.feasibility(), SolveStatus::Infeasible);
  SimplexOptions options;
  options.presolve = false;
  EXPECT_EQ(solve(p, options).status, SolveStatus::Infeasible);
}

TEST(TableauFeasibility, ForcedStallReportsIterationLimit) {
  const Problem p =
      twoVarProblem(expr({{0, 1}, {1, 1}}), Relation::GreaterEq, 3);
  Tableau t(p, SimplexOptions{});
  TI::forceStall(t);
  EXPECT_EQ(t.feasibility(), SolveStatus::IterationLimit);
  EXPECT_EQ(t.totalPivots(), 0);
}

TEST(TableauIndex, CarrierListsMatchAFullRowScanAfterLongSolves) {
  // Larger, denser systems: many pivots, heavy fill-in, unlinked links
  // and index rebuilds.  Afterwards every column's list must name exactly
  // the rows a full scan finds.
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> coeff(-4, 4);
  std::uniform_int_distribution<int> rhs(0, 30);
  std::bernoulli_distribution present(0.3);
  for (int k = 0; k < 20; ++k) {
    Problem p;
    const int n = 45;
    for (int v = 0; v < n; ++v) p.addVar();
    for (int i = 0; i < 60; ++i) {
      LinearExpr e;
      for (int v = 0; v < n; ++v) {
        const int c = coeff(rng);
        if (c != 0 && present(rng)) e.add(v, c);
      }
      p.addConstraint(std::move(e), i % 3 == 0 ? Relation::GreaterEq
                                               : Relation::LessEq,
                      rhs(rng));
    }
    for (int v = 0; v < n; ++v) {
      LinearExpr e;
      e.add(v, 1.0);
      p.addConstraint(std::move(e), Relation::LessEq, 20);
    }
    std::vector<double> objective(static_cast<std::size_t>(n), 1.0);
    Tableau t(p, SimplexOptions{});
    const Solution s = t.run(objective, 0.0);
    EXPECT_GT(s.pivots, 10) << "problem " << k;
    for (int col = 0; col < TI::numCols(t); ++col) {
      ASSERT_EQ(TI::carrierRows(t, col), TI::scannedRows(t, col))
          << "problem " << k << " column " << col;
    }
  }
}

TEST(TableauIndex, MatchesDenseEveryRowReferenceOn200Problems) {
  std::mt19937 rng(20261017);
  int optimal = 0;
  int infeasible = 0;
  for (int k = 0; k < 200; ++k) {
    std::vector<double> objective;
    const Problem p = randomProblem(rng, &objective);
    for (const PivotRule rule :
         {PivotRule::Devex, PivotRule::Dantzig, PivotRule::Bland}) {
      SimplexOptions opt;
      opt.pivotRule = rule;
      Tableau sparse(p, opt);
      const Solution got = sparse.run(objective, 0.0);
      DenseTableau dense(p, opt, Start::SlackBasis);
      const Solution want = dense.run(objective);
      ASSERT_EQ(got.status, want.status)
          << "problem " << k << " rule " << pivotRuleStr(rule);
      ASSERT_EQ(got.pivots, want.pivots)
          << "problem " << k << " rule " << pivotRuleStr(rule);
      if (want.status == SolveStatus::Optimal) {
        ASSERT_EQ(got.objective, want.objective)
            << "problem " << k << " rule " << pivotRuleStr(rule);
      }
      // An independent verdict: the two-phase method never runs the dual
      // loop that decides feasibility here.
      DenseTableau twoPhase(p, opt, Start::Artificials);
      const Solution reference = twoPhase.run(objective);
      ASSERT_EQ(got.status, reference.status)
          << "problem " << k << " rule " << pivotRuleStr(rule);
      if (reference.status == SolveStatus::Optimal) {
        ASSERT_NEAR(got.objective, reference.objective,
                    1e-9 * std::max(1.0, std::abs(reference.objective)))
            << "problem " << k << " rule " << pivotRuleStr(rule);
      }
      if (rule == PivotRule::Devex) {
        optimal += got.status == SolveStatus::Optimal ? 1 : 0;
        infeasible += got.status == SolveStatus::Infeasible ? 1 : 0;
      }
    }
  }
  // The sample exercises both outcomes, not just one.
  EXPECT_GT(optimal, 20);
  EXPECT_GT(infeasible, 20);
}

}  // namespace
}  // namespace cinderella::lp
