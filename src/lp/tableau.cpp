#include "cinderella/lp/tableau.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"

namespace cinderella::lp {

namespace {

/// Entries whose magnitude falls below this after a row combination are
/// dropped from the sparse row.  Well below kPivotTol, so a dropped entry
/// can never have been a pivot candidate.
constexpr double kDropTol = 1e-12;

/// Pivots since the objective last improved by more than `tol`.
struct Progress {
  double best = 0.0;
  double tol = 0.0;
  int stalled = 0;
  void note(double objective) {
    if (objective > best + tol) {
      best = objective;
      stalled = 0;
    } else {
      ++stalled;
    }
  }
};

}  // namespace

double Tableau::rowCoeff(const SparseRow& row, int col) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), col,
      [](const Entry& e, int c) { return e.col < c; });
  return (it != row.end() && it->col == col) ? it->val : 0.0;
}

void Tableau::setRowCoeff(SparseRow* row, int col, double val) {
  const auto it = std::lower_bound(
      row->begin(), row->end(), col,
      [](const Entry& e, int c) { return e.col < c; });
  if (it != row->end() && it->col == col) {
    if (val == 0.0) {
      row->erase(it);
    } else {
      it->val = val;
    }
  } else if (val != 0.0) {
    row->insert(it, Entry{col, val});
  }
}

void Tableau::subtractScaled(int dstRow, double factor, const SparseRow& src,
                             int eliminateCol) {
  SparseRow* const dst = &rows_[static_cast<std::size_t>(dstRow)];
  scratch_.clear();
  auto a = dst->begin();
  const auto aEnd = dst->end();
  auto b = src.begin();
  const auto bEnd = src.end();
  while (a != aEnd || b != bEnd) {
    if (b == bEnd || (a != aEnd && a->col < b->col)) {
      if (a->col != eliminateCol) scratch_.push_back(*a);
      ++a;
    } else if (a == aEnd || b->col < a->col) {
      if (b->col != eliminateCol) {
        const double v = -factor * b->val;
        if (std::abs(v) > kDropTol) {
          scratch_.push_back(Entry{b->col, v});
          // Fill-in: the row now carries b->col.
          colIndex_.add(b->col, dstRow);
        }
      }
      ++b;
    } else {
      if (a->col != eliminateCol) {
        const double v = a->val - factor * b->val;
        if (std::abs(v) > kDropTol) scratch_.push_back(Entry{a->col, v});
      }
      ++a;
      ++b;
    }
  }
  dst->swap(scratch_);
}

void Tableau::gatherCarriers(int col) {
  carriers_.clear();
  colIndex_.walk(col, [&](int r) {
    const SparseRow& row = rows_[static_cast<std::size_t>(r)];
    const auto it = std::lower_bound(
        row.begin(), row.end(), col,
        [](const Entry& x, int c) { return x.col < c; });
    // Stale: the entry was eliminated or dropped.
    if (it == row.end() || it->col != col) return false;
    // A present entry stays linked even at value zero: a later row
    // combination can make it nonzero again without a fill-in.
    if (it->val != 0.0) carriers_.push_back(Carrier{r, it->val});
    return true;
  });
}

Tableau::Tableau(const Problem& p, PivotRule rule)
    : rule_(rule), pivotBudget_(maxPivots_), numOriginal_(p.numVars()) {
  const auto& cons = p.constraints();
  m_ = static_cast<int>(cons.size());
  numCols_ = numOriginal_ + m_;
  stallLimit_ = std::max(500, m_);

  rows_.resize(static_cast<std::size_t>(m_));
  rhs_.assign(static_cast<std::size_t>(m_), 0.0);
  obj_.assign(static_cast<std::size_t>(numCols_), 0.0);
  fixed_.assign(static_cast<std::size_t>(numCols_), 0);
  basis_.assign(static_cast<std::size_t>(m_), -1);

  for (int i = 0; i < m_; ++i) {
    const Constraint& c = cons[static_cast<std::size_t>(i)];
    const double sign = c.rel == Relation::GreaterEq ? -1.0 : 1.0;
    SparseRow& row = rows_[static_cast<std::size_t>(i)];
    for (const auto& t : c.expr.terms()) {
      setRowCoeff(&row, t.var, sign * t.coeff);
    }
    rhs_[static_cast<std::size_t>(i)] = sign * c.rhs;

    const int slack = slackColumn(numOriginal_, i);
    setRowCoeff(&row, slack, 1.0);
    fixed_[static_cast<std::size_t>(slack)] = c.rel == Relation::Equal;
    basis_[static_cast<std::size_t>(i)] = slack;
  }
  rebuildColumnIndex();
}

void Tableau::rebuildColumnIndex() {
  colIndex_.reset(numCols_, m_);
  std::size_t nonzeros = 0;
  for (const SparseRow& row : rows_) nonzeros += row.size();
  colIndex_.reserve(nonzeros);
  for (int i = 0; i < m_; ++i) {
    for (const Entry& e : rows_[static_cast<std::size_t>(i)]) {
      colIndex_.add(e.col, i);
    }
  }
  // Every fill-in adds a link to the pool and unlinked links are not
  // reused.  Rebuilding once the pool has grown by half keeps it within
  // 1.5x the nonzeros at amortized constant cost per fill-in.
  compactAt_ = nonzeros + nonzeros / 2 + static_cast<std::size_t>(m_);
}

double Tableau::rowRhs(int row) const {
  return rhs_[static_cast<std::size_t>(row)];
}

int Tableau::basicColumn(int row) const {
  return basis_[static_cast<std::size_t>(row)];
}

void Tableau::pivot(int row, int col) {
  gatherCarriers(col);
  pivotGathered(row, col);
}

void Tableau::pivotGathered(int row, int col) {
  // Fault-injection seam: emulate a numeric breakdown mid-solve.  The
  // analyzer's degradation ladder catches this as a SolverError.
  if (support::FaultInjector* const injector = support::faultInjector()) {
    if (injector->shouldFault(support::FaultSite::LpPivot)) {
      throw InjectedFaultError("injected fault at simplex pivot");
    }
  }
  SparseRow& pr = rows_[static_cast<std::size_t>(row)];
  const int leaving = basis_[static_cast<std::size_t>(row)];
  if (leaving != col && fixed_[static_cast<std::size_t>(leaving)]) {
    // The basic column is a unit column of this row, and a fixed slack
    // leaves at zero for good: dropping its entry here removes it from
    // the tableau before any row combination can carry it.
    setRowCoeff(&pr, leaving, 0.0);
  }
  const double p = rowCoeff(pr, col);
  CIN_REQUIRE(std::abs(p) > kPivotTol);
  const double inv = 1.0 / p;
  for (Entry& e : pr) e.val *= inv;
  setRowCoeff(&pr, col, 1.0);
  rhs_[static_cast<std::size_t>(row)] *= inv;

  // Only the rows carrying `col` change; each is updated independently,
  // so the order the index yields them in does not matter.
  for (const Carrier& c : carriers_) {
    if (c.row == row) continue;
    subtractScaled(c.row, c.coeff, pr, col);
    rhs_[static_cast<std::size_t>(c.row)] -=
        c.coeff * rhs_[static_cast<std::size_t>(row)];
  }

  const double objFactor = obj_[static_cast<std::size_t>(col)];
  if (objFactor != 0.0) {
    for (const Entry& e : pr) {
      obj_[static_cast<std::size_t>(e.col)] -= objFactor * e.val;
    }
    obj_[static_cast<std::size_t>(col)] = 0.0;
    objRhs_ -= objFactor * rhs_[static_cast<std::size_t>(row)];
  }

  basis_[static_cast<std::size_t>(row)] = col;
  if (colIndex_.pooledLinks() > compactAt_) rebuildColumnIndex();
}

void Tableau::setObjectiveRow(const std::vector<double>& objective) {
  std::fill(obj_.begin(), obj_.end(), 0.0);
  objRhs_ = 0.0;
  for (int j = 0; j < numOriginal_; ++j) {
    obj_[static_cast<std::size_t>(j)] =
        -objective[static_cast<std::size_t>(j)];
  }
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    if (b >= numOriginal_) continue;
    const double c = objective[static_cast<std::size_t>(b)];
    if (c == 0.0) continue;
    for (const Entry& e : rows_[static_cast<std::size_t>(i)]) {
      obj_[static_cast<std::size_t>(e.col)] += c * e.val;
    }
    objRhs_ += c * rhs_[static_cast<std::size_t>(i)];
  }
}

SolveStatus Tableau::optimize() {
  // Fresh Devex reference framework per optimize() call: every weight
  // starts at 1 (so the first pick is plain Dantzig) and grows with the
  // pivot-row update below, steering later picks away from columns that
  // produced long steps through degenerate vertices.
  if (rule_ == PivotRule::Devex) {
    devexWeights_.assign(static_cast<std::size_t>(numCols_), 1.0);
  }
  Progress progress{objectiveValue(), tol_};
  while (true) {
    if (pivots_ >= pivotBudget_) return SolveStatus::IterationLimit;
    // Entering column per the configured rule.  Devex: largest
    // rc^2/weight (smallest index on ties).  Dantzig: most negative
    // reduced cost (smallest index on ties).  Bland: smallest-index
    // column with negative reduced cost.
    int enter = -1;
    if (rule_ == PivotRule::Devex) {
      double bestScore = 0.0;
      for (int j = 0; j < numCols_; ++j) {
        const double rc = obj_[static_cast<std::size_t>(j)];
        if (rc >= -tol_) continue;
        const double score =
            rc * rc / devexWeights_[static_cast<std::size_t>(j)];
        if (score > bestScore) {
          bestScore = score;
          enter = j;
        }
      }
    } else if (rule_ == PivotRule::Dantzig) {
      double best = -tol_;
      for (int j = 0; j < numCols_; ++j) {
        const double rc = obj_[static_cast<std::size_t>(j)];
        if (rc < best) {
          best = rc;
          enter = j;
        }
      }
    } else {
      for (int j = 0; j < numCols_; ++j) {
        if (obj_[static_cast<std::size_t>(j)] < -tol_) {
          enter = j;
          break;
        }
      }
    }
    if (enter < 0) return SolveStatus::Optimal;

    // Ratio test, two passes.  A single pass that accepts any ratio
    // within +/-tol of the running best lets the accepted ratio creep
    // one tolerance upward per acceptance; pivoting on a row whose
    // ratio exceeds the true minimum drives the minimum row's rhs
    // negative by a_ij times the excess, which on million-scale IPET
    // tableaus compounds into real infeasibility (a bounding cut
    // silently ignored).  Pass 1 finds the exact minimum ratio; pass 2
    // picks the smallest basic index (Bland anti-cycling tie-break)
    // among rows within one tolerance of it.
    gatherCarriers(enter);
    double bestRatio = std::numeric_limits<double>::infinity();
    for (const Carrier& c : carriers_) {
      if (c.coeff <= kPivotTol) continue;
      const double ratio = rhs_[static_cast<std::size_t>(c.row)] / c.coeff;
      if (ratio < bestRatio) bestRatio = ratio;
    }
    if (bestRatio == std::numeric_limits<double>::infinity()) {
      return SolveStatus::Unbounded;
    }
    // Basic columns are distinct, so the smallest one is unique and the
    // carrier order cannot change the pick.
    int leave = -1;
    for (const Carrier& c : carriers_) {
      if (c.coeff <= kPivotTol) continue;
      const double ratio = rhs_[static_cast<std::size_t>(c.row)] / c.coeff;
      if (ratio <= bestRatio + tol_ &&
          (leave < 0 || basis_[static_cast<std::size_t>(c.row)] <
                            basis_[static_cast<std::size_t>(leave)])) {
        leave = c.row;
      }
    }
    if (progress.stalled >= stallLimit_ && rule_ != PivotRule::Bland) {
      // Do NOT continue from this basis: epsilon-step pivots through
      // near-singular elements have been eroding it numerically.
      return SolveStatus::IterationLimit;
    }
    const double gammaQ =
        rule_ == PivotRule::Devex
            ? devexWeights_[static_cast<std::size_t>(enter)]
            : 0.0;
    pivotGathered(leave, enter);
    ++pivots_;
    progress.note(objectiveValue());
    if (rule_ == PivotRule::Devex) {
      ++devexPivots_;
      // Reference-framework update from the pivot row.  pivot() scaled
      // the row so the entry at `enter` is exactly 1, making every
      // other entry the ratio alpha_rj / alpha_rq the update needs:
      //   gamma_j = max(gamma_j, ratio^2 * gamma_q)
      // (the old basic column appears in the row with value
      // 1/alpha_rq, so the classic leaving-variable update
      // gamma_p = max(1, gamma_q / alpha_rq^2) falls out of the same
      // loop).  Weights that outgrow the threshold restart the
      // framework — the approximation has drifted too far to steer.
      constexpr double kDevexReset = 1e9;
      double maxWeight = 1.0;
      for (const Entry& e :
           rows_[static_cast<std::size_t>(leave)]) {
        if (e.col == enter) continue;
        const double candidate = e.val * e.val * gammaQ;
        double& w = devexWeights_[static_cast<std::size_t>(e.col)];
        if (candidate > w) w = candidate;
        if (w > maxWeight) maxWeight = w;
      }
      if (maxWeight > kDevexReset) {
        devexWeights_.assign(static_cast<std::size_t>(numCols_), 1.0);
      }
    }
  }
}

SolveStatus Tableau::dualSimplex() {
  // The objective only falls here, so progress is tracked on minus it.
  Progress progress{-objectiveValue(), tol_};
  while (true) {
    if (pivots_ >= pivotBudget_) return SolveStatus::IterationLimit;
    // Leaving row: a negative basic value, or a fixed slack away from
    // zero on either side.  The most violated row (ties: smallest row);
    // under Bland the violated row with the smallest basic column, the
    // dual form of its anti-cycling rule.
    int leave = -1;
    double worst = tol_;
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      const double r = rhs_[static_cast<std::size_t>(i)];
      const double violation =
          fixed_[static_cast<std::size_t>(b)] ? std::abs(r) : -r;
      if (violation <= tol_) continue;
      if (rule_ == PivotRule::Bland) {
        if (leave < 0 || b < basis_[static_cast<std::size_t>(leave)]) {
          leave = i;
        }
      } else if (violation > worst) {
        worst = violation;
        leave = i;
      }
    }
    if (leave < 0) return SolveStatus::Optimal;
    // Entering column: minimum dual ratio rc_j / |a_rj| over the entries
    // that move the basic value toward feasibility (ties: smallest
    // column).  None means no point with every column nonnegative
    // satisfies the row.
    const int leaving = basis_[static_cast<std::size_t>(leave)];
    const double toward =
        rhs_[static_cast<std::size_t>(leave)] < 0 ? -1.0 : 1.0;
    int enter = -1;
    double bestRatio = std::numeric_limits<double>::infinity();
    for (const Entry& e : rows_[static_cast<std::size_t>(leave)]) {
      const double a = toward * e.val;
      if (a <= kPivotTol || e.col == leaving) continue;
      const double ratio = obj_[static_cast<std::size_t>(e.col)] / a;
      if (ratio < bestRatio - tol_) {
        bestRatio = ratio;
        enter = e.col;
      }
    }
    if (enter < 0) return SolveStatus::Infeasible;
    if (progress.stalled >= stallLimit_ && rule_ != PivotRule::Bland) {
      return SolveStatus::IterationLimit;
    }
    pivot(leave, enter);
    ++pivots_;
    progress.note(-objectiveValue());
  }
}

SolveStatus Tableau::feasibility() {
  // min sum(x): every reduced cost at the slack basis is 1 or 0.
  setObjectiveRow(
      std::vector<double>(static_cast<std::size_t>(numOriginal_), -1.0));
  const SolveStatus status = dualSimplex();
  if (status != SolveStatus::Optimal) return status;
  // A fixed slack still basic sits at zero, but a primal pivot with a
  // negative entry in its row would move it.  Pivot it out on the row's
  // smallest-index nonzero entry (entries are sorted); a row with none
  // is redundant and keeps it.
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    if (!fixed_[static_cast<std::size_t>(b)]) continue;
    const SparseRow& row = rows_[static_cast<std::size_t>(i)];
    const auto it = std::find_if(row.begin(), row.end(), [&](const Entry& e) {
      return e.col != b && std::abs(e.val) > kPivotTol;
    });
    if (it == row.end()) continue;
    pivot(i, it->col);
    ++pivots_;
  }
  return SolveStatus::Optimal;
}

Solution Tableau::maximize(const std::vector<double>& objective,
                           double constant) {
  setObjectiveRow(objective);
  return finishPrimal(constant);
}

Solution Tableau::finishPrimal(double constant) {
  const SolveStatus status = optimize();
  if (status != SolveStatus::Optimal) return stopped(status);
  if (!primalFeasibleAtTol()) {
    // The "optimum" sits outside the feasible region: pivot drift ate a
    // constraint.  Report IterationLimit so the solver re-solves on a
    // fresh tableau under Bland's rule instead of returning an unsound
    // point.
    return stopped(SolveStatus::IterationLimit);
  }
  Solution solution = stopped(SolveStatus::Optimal);
  fillSolutionValues(&solution);
  solution.objective = objectiveValue() + constant;
  return solution;
}

Solution Tableau::stopped(SolveStatus status) const {
  Solution solution;
  solution.status = status;
  solution.pivots = pivots_;
  solution.devexPivots = devexPivots_;
  return solution;
}

Solution Tableau::run(const std::vector<double>& objective, double constant) {
  const SolveStatus st = feasibility();
  if (st != SolveStatus::Optimal) return stopped(st);
  return maximize(objective, constant);
}

void Tableau::resetPivotBudget() { pivotBudget_ = pivots_ + maxPivots_; }

void Tableau::appendLessEqRow(const std::vector<Term>& terms, double rhs) {
  const int row = m_++;
  const int slack = slackColumn(numOriginal_, row);
  numCols_ = slack + 1;
  obj_.resize(static_cast<std::size_t>(numCols_), 0.0);
  fixed_.resize(static_cast<std::size_t>(numCols_), 0);
  colIndex_.grow(numCols_, m_);

  SparseRow cut;
  for (const Term& t : terms) setRowCoeff(&cut, t.var, t.coeff);
  cut.push_back(Entry{slack, 1.0});
  for (const Entry& e : cut) colIndex_.add(e.col, row);
  rows_.push_back(std::move(cut));
  rhs_.push_back(rhs);
  basis_.push_back(slack);

  std::vector<int> basicRow(static_cast<std::size_t>(numCols_), -1);
  for (int i = 0; i < row; ++i) {
    basicRow[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] =
        i;
  }
  // A basic row is zero in every other basic column, so eliminating one
  // basic term leaves the others' coefficients as given.
  for (const Term& t : terms) {
    const int i = basicRow[static_cast<std::size_t>(t.var)];
    if (i < 0) continue;
    subtractScaled(row, t.coeff, rows_[static_cast<std::size_t>(i)], t.var);
    rhs_[static_cast<std::size_t>(row)] -=
        t.coeff * rhs_[static_cast<std::size_t>(i)];
  }
}

Solution Tableau::reoptimize(double constant) {
  const SolveStatus status = dualSimplex();
  if (status != SolveStatus::Optimal) return stopped(status);
  return finishPrimal(constant);
}

bool Tableau::primalFeasibleAtTol() const {
  double scale = 1.0;
  for (int i = 0; i < m_; ++i) {
    scale = std::max(scale, std::abs(rhs_[static_cast<std::size_t>(i)]));
  }
  const double limit = -1e-6 * scale;
  for (int i = 0; i < m_; ++i) {
    const double r = rhs_[static_cast<std::size_t>(i)];
    const bool fixed =
        fixed_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
    if (r < limit || (fixed && r > -limit)) return false;
  }
  return true;
}

void Tableau::fillSolutionValues(Solution* solution) const {
  solution->values.assign(static_cast<std::size_t>(numOriginal_), 0.0);
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    if (b < numOriginal_) {
      solution->values[static_cast<std::size_t>(b)] =
          rhs_[static_cast<std::size_t>(i)];
    }
  }
  // Clamp tiny negatives introduced by rounding.
  for (double& v : solution->values) {
    if (v < 0 && v > -tol_) v = 0;
  }
}

std::size_t tableauBytes(const Problem& p) {
  std::size_t entries = 0;
  for (const Constraint& c : p.constraints()) {
    entries += c.expr.terms().size() + 1;
  }
  const std::size_t rows = p.constraints().size();
  const std::size_t cols = static_cast<std::size_t>(p.numVars()) + rows;
  return entries * (16 + 8) + rows * 36 + cols * 21;
}

}  // namespace cinderella::lp
