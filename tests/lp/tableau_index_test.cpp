// The tableau's column index: a pivot and the ratio test visit only the
// rows carrying the column, read off pooled per-column link lists that
// grow on fill-in and drop stale links when read.  These tests pin the
// list maintenance directly and compare whole solves against a dense
// reference tableau that visits every row on every pivot.
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

// Three variables; the slack of row r is column 3 + 2r.
constexpr int kS0 = 3;
constexpr int kS1 = 5;
constexpr int kS2 = 7;

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
// Dense reference: the same two-phase algorithm, pricing, ratio test,
// tie-breaks and drop tolerance as lp::Tableau::run, on a dense matrix
// whose pivot visits every row.

constexpr double kDropTol = 1e-12;

class DenseTableau {
 public:
  DenseTableau(const Problem& p, const SimplexOptions& opt)
      : opt_(opt), n_(p.numVars()),
        m_(static_cast<int>(p.constraints().size())), cols_(n_ + 2 * m_) {
    a_.assign(static_cast<std::size_t>(m_),
              std::vector<double>(static_cast<std::size_t>(cols_), 0.0));
    rhs_.assign(static_cast<std::size_t>(m_), 0.0);
    obj_.assign(static_cast<std::size_t>(cols_), 0.0);
    exists_.assign(static_cast<std::size_t>(cols_), 0);
    basis_.assign(static_cast<std::size_t>(m_), -1);
    for (int v = 0; v < n_; ++v) exists_[static_cast<std::size_t>(v)] = 1;
    for (int i = 0; i < m_; ++i) {
      const Constraint& c = p.constraints()[static_cast<std::size_t>(i)];
      const double sign = c.rhs < 0 ? -1.0 : 1.0;
      Relation rel = c.rel;
      if (c.rhs < 0 && rel != Relation::Equal) {
        rel = rel == Relation::LessEq ? Relation::GreaterEq : Relation::LessEq;
      }
      auto& row = a_[static_cast<std::size_t>(i)];
      for (const Term& t : c.expr.terms()) {
        row[static_cast<std::size_t>(t.var)] = sign * t.coeff;
      }
      rhs_[static_cast<std::size_t>(i)] = sign * c.rhs;
      const int slack = n_ + 2 * i;
      const int art = slack + 1;
      if (rel == Relation::LessEq) {
        row[static_cast<std::size_t>(slack)] = 1.0;
        exists_[static_cast<std::size_t>(slack)] = 1;
        basis_[static_cast<std::size_t>(i)] = slack;
      } else {
        if (rel == Relation::GreaterEq) {
          row[static_cast<std::size_t>(slack)] = -1.0;
          exists_[static_cast<std::size_t>(slack)] = 1;
        }
        row[static_cast<std::size_t>(art)] = 1.0;
        exists_[static_cast<std::size_t>(art)] = 1;
        basis_[static_cast<std::size_t>(i)] = art;
      }
    }
  }

  Solution run(const std::vector<double>& objective) {
    Solution solution;
    bool anyArtificial = false;
    for (int i = 0; i < m_; ++i) {
      anyArtificial = anyArtificial || exists_[static_cast<std::size_t>(
                                           n_ + 2 * i + 1)] != 0;
    }
    if (anyArtificial) {
      setObjective([&](int col) { return isArtificial(col) ? -1.0 : 0.0; });
      const SolveStatus st = optimize(true);
      solution.pivots = pivots_;
      if (st == SolveStatus::IterationLimit) {
        solution.status = st;
        return solution;
      }
      if (objRhs_ < -opt_.tol) {
        solution.status = SolveStatus::Infeasible;
        return solution;
      }
      evictArtificials();
    }
    setObjective([&](int col) {
      return col < n_ ? objective[static_cast<std::size_t>(col)] : 0.0;
    });
    solution.status = optimize(false);
    solution.pivots = pivots_;
    if (solution.status != SolveStatus::Optimal) return solution;
    double scale = 1.0;
    for (const double r : rhs_) scale = std::max(scale, std::abs(r));
    for (const double r : rhs_) {
      if (r < -1e-6 * scale) {
        solution.status = SolveStatus::IterationLimit;
        return solution;
      }
    }
    solution.objective = objRhs_;
    return solution;
  }

 private:
  [[nodiscard]] bool isArtificial(int col) const {
    return col >= n_ && (col - n_) % 2 == 1;
  }
  double& at(int i, int j) {
    return a_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }

  template <typename Fn>
  void setObjective(Fn coeff) {
    std::fill(obj_.begin(), obj_.end(), 0.0);
    objRhs_ = 0.0;
    for (int j = 0; j < cols_; ++j) {
      if (exists_[static_cast<std::size_t>(j)]) {
        obj_[static_cast<std::size_t>(j)] = -coeff(j);
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

  void evictArtificials() {
    for (int i = 0; i < m_; ++i) {
      if (!isArtificial(basis_[static_cast<std::size_t>(i)])) continue;
      for (int j = 0; j < cols_; ++j) {
        if (isArtificial(j) || std::abs(at(i, j)) <= opt_.pivotTol) continue;
        pivot(i, j);
        ++pivots_;
        break;
      }
    }
  }

  SimplexOptions opt_;
  int n_;
  int m_;
  int cols_;
  std::vector<std::vector<double>> a_;
  std::vector<double> rhs_;
  std::vector<double> obj_;
  double objRhs_ = 0.0;
  std::vector<unsigned char> exists_;
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
    const int n = 30;
    for (int v = 0; v < n; ++v) p.addVar();
    for (int i = 0; i < 40; ++i) {
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
      DenseTableau dense(p, opt);
      const Solution want = dense.run(objective);
      ASSERT_EQ(got.status, want.status)
          << "problem " << k << " rule " << pivotRuleStr(rule);
      ASSERT_EQ(got.pivots, want.pivots)
          << "problem " << k << " rule " << pivotRuleStr(rule);
      if (want.status == SolveStatus::Optimal) {
        ASSERT_EQ(got.objective, want.objective)
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
