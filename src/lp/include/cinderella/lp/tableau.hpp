// Sparse-row simplex tableau in standard form: the cold solve, the steps
// a LiveTableau (simplex.hpp) runs one at a time on the same rows, and
// the cut rows a BranchPoint adds on a copy of it.
//
// There are no artificial columns.  Row r owns the slack column
// numVars + r (original variable v is column v; an appended row takes
// the next id, so ids stay stable), basic at construction.  A LessEq row
// is stored as given and a GreaterEq row negated, with any rhs sign; an
// Equal row's slack is fixed at zero.  One dual simplex loop restores
// primal feasibility, from the slack basis (feasibility()) and after a
// cut row (reoptimize()): a row is violated while its basic value is
// negative, or its basic is a fixed slack away from zero.  A fixed
// slack that leaves the basis is dropped from the pivot row in that same
// pivot, so no row ever carries it again and, its reduced cost staying
// exactly 0, it never re-enters.  The primal simplex (maximize()) then
// optimizes each objective from the feasible basis.
//
// Rows are kept as sorted (column, value) entry lists — IPET constraint
// matrices are flow matrices with a handful of nonzeros per row, so the
// dense tableau this replaces spent most of its time streaming zeros.
// The objective (reduced-cost) row is kept dense: every entering-column
// scan reads all of it anyway.
//
// A column index (a CarrierIndex, see carrier_index.hpp) maps each
// column to the rows carrying a nonzero in it, so a pivot and both
// ratio-test passes visit only those rows instead of binary-searching
// all m.  It is built in the constructor, extended when a row
// combination fills in a new entry, and never shrunk eagerly — a link
// whose row no longer holds the column, or that repeats a row already
// seen, is unlinked when the list is read, and the whole index is
// rebuilt from the rows once the pool has grown by half (columns that
// never enter would otherwise collect links).  Row updates are
// independent of each other and the ratio test's tie-break (smallest
// basic column) is unique, so visiting the rows in list order gives
// bit-identical results to a scan over every row.
#pragma once

#include <cstddef>
#include <vector>

#include "cinderella/lp/carrier_index.hpp"
#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::lp {

class Tableau {
 public:
  /// A tableau whose simplex loops enter columns by `rule`.
  Tableau(const Problem& problem, PivotRule rule);

  /// Cold solve: feasibility(), then maximize() when the rows are
  /// feasible, all within one kMaxPivots budget.
  [[nodiscard]] Solution run(const std::vector<double>& objective,
                             double constant);

  /// The dual simplex from the slack basis under min sum(x), which is
  /// dual feasible there.  Optimal when the rows are feasible, Infeasible
  /// when a violated row has no entry to pivot on (a verdict that rests
  /// on kPivotTol), IterationLimit when the budget or stall guard ran out.
  [[nodiscard]] SolveStatus feasibility();

  /// The primal simplex from the current, primal feasible basis: prices
  /// `objective` (dense over the original variables) and maximizes it,
  /// plus `constant`.  A claimed optimum that fails primalFeasibleAtTol()
  /// reports IterationLimit.  `pivots` and `devexPivots` of the result
  /// count from the tableau's construction.
  [[nodiscard]] Solution maximize(const std::vector<double>& objective,
                                  double constant);

  /// Grants a full kMaxPivots budget from the current pivot count on.
  void resetPivotBudget();

  /// Appends the row `terms <= rhs` (terms over the original columns)
  /// with its slack basic, written over the current basis: every basic
  /// column is a unit column, so subtracting each basic term's row once
  /// clears them all.  The new rhs may be negative.
  void appendLessEqRow(const std::vector<Term>& terms, double rhs);

  /// After appendLessEqRow() on an optimal basis: the dual simplex under
  /// the current objective row, then the primal simplex as in
  /// maximize().  Infeasible as in feasibility().
  [[nodiscard]] Solution reoptimize(double constant);

  /// Audit after a claimed-Optimal phase: true when every basic value is
  /// nonnegative, and every basic fixed slack zero, within a scale-aware
  /// tolerance.  Accumulated pivot drift can push a row's rhs genuinely
  /// negative (an ignored constraint); callers treat a failed audit as
  /// IterationLimit and re-solve on a fresh tableau under a more
  /// conservative rule.
  [[nodiscard]] bool primalFeasibleAtTol() const;

  /// Simplex iterations so far, and those chosen by Devex pricing.
  [[nodiscard]] int totalPivots() const { return pivots_; }
  [[nodiscard]] int devexPivots() const { return devexPivots_; }

  // Introspection for tests.
  [[nodiscard]] int numRows() const { return m_; }
  [[nodiscard]] double rowRhs(int row) const;
  [[nodiscard]] int basicColumn(int row) const;

 private:
  /// Test-only access to pivot() and the column index, and to the
  /// budget, stall limit and right-hand sides a LiveTableau test forces
  /// failures with.
  friend struct TableauInspector;
  friend struct LiveTableauInspector;

  [[nodiscard]] static int slackColumn(int numVars, int row) {
    return numVars + row;
  }

  struct Entry {
    int col = 0;
    double val = 0.0;
  };
  using SparseRow = std::vector<Entry>;

  [[nodiscard]] static double rowCoeff(const SparseRow& row, int col);
  static void setRowCoeff(SparseRow* row, int col, double val);
  /// rows_[dstRow] -= factor * src, eliminating `eliminateCol` exactly
  /// and dropping entries below the drop tolerance; a filled-in entry
  /// links dstRow into its column's list.
  void subtractScaled(int dstRow, double factor, const SparseRow& src,
                      int eliminateCol);

  /// A row with a nonzero in the column being gathered.
  struct Carrier {
    int row = 0;
    double coeff = 0.0;
  };
  /// Relinks every present entry, dropping all stale and repeated links.
  void rebuildColumnIndex();
  /// Fills carriers_ with every row holding a nonzero in `col`, each
  /// once, unlinking stale and repeated links on the way.
  void gatherCarriers(int col);

  void pivot(int row, int col);
  /// pivot() with carriers_ already gathered for `col`.
  void pivotGathered(int row, int col);
  /// Installs the objective row for `objective` (dense over the original
  /// columns, maximization; slacks cost nothing) and prices out the
  /// current basis so reduced costs are consistent.
  void setObjectiveRow(const std::vector<double>& objective);
  [[nodiscard]] double objectiveValue() const { return objRhs_; }

  /// The primal and the dual simplex under the installed objective row;
  /// the dual one needs nonnegative reduced costs.
  [[nodiscard]] SolveStatus optimize();
  [[nodiscard]] SolveStatus dualSimplex();
  /// optimize(), the feasibility audit, and the point and objective
  /// (plus `constant`) on success.
  [[nodiscard]] Solution finishPrimal(double constant);
  /// A result carrying only `status` and the pivot counts.
  [[nodiscard]] Solution stopped(SolveStatus status) const;
  void fillSolutionValues(Solution* solution) const;

  PivotRule rule_ = PivotRule::Dantzig;
  /// This tableau's copy of the pivot budget and the feasibility
  /// tolerance (simplex.hpp), which a LiveTableau test tightens or
  /// loosens on one copy to force its failure paths.
  int maxPivots_ = kMaxPivots;
  double tol_ = kFeasibilityTol;
  int pivotBudget_ = 0;
  /// Anti-stalling guard of both loops.  IPET tableaus are massively
  /// degenerate (every flow row is an equality threaded through x0 = 1),
  /// and a loop can orbit a degenerate vertex for the whole budget while
  /// numeric drift accumulates.  After this many pivots without the
  /// objective improving by more than tol_ (max(500, m) at construction;
  /// every wasted pivot is paid in full, so it errs low) a loop reports
  /// IterationLimit, and the solver re-solves from scratch under the
  /// next rule of its retry ladder.  Bland's rule cannot cycle and is
  /// exempt.
  int stallLimit_ = 0;
  int numOriginal_ = 0;
  int m_ = 0;
  int numCols_ = 0;
  std::vector<SparseRow> rows_;
  std::vector<double> rhs_;
  std::vector<double> obj_;
  double objRhs_ = 0.0;
  /// Per column: the slack of an Equal row, fixed at zero.
  std::vector<unsigned char> fixed_;
  /// Column -> rows carrying an entry in it.
  CarrierIndex colIndex_;
  /// Pool size past which the next pivot rebuilds the index.
  std::size_t compactAt_ = 0;
  std::vector<Carrier> carriers_;
  std::vector<int> basis_;
  SparseRow scratch_;
  /// Devex reference-framework weights, one per column; reinitialized
  /// to 1.0 at every optimize() entry (a fresh reference framework) and
  /// whenever they grow past the reset threshold.
  std::vector<double> devexWeights_;
  int pivots_ = 0;
  int devexPivots_ = 0;
};

/// What the sparse tableau over `p`'s rows holds when built: per entry,
/// each row's slack included, a column and a double (16 bytes) and a
/// column-index link (8); per row its vector, rhs and basic (36); per
/// column its objective, Devex weight, fixed flag and index head (21).
/// Fill-in during pivoting is not charged.
[[nodiscard]] std::size_t tableauBytes(const Problem& p);

}  // namespace cinderella::lp
