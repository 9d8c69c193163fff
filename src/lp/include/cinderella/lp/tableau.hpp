// Sparse-row simplex tableau in standard form: the cold two-phase solve,
// the phases a LiveTableau (simplex.hpp) runs one at a time on the same
// rows, and the cut rows a BranchPoint adds on a copy of it.
//
// Rows are kept as sorted (column, value) entry lists — IPET constraint
// matrices are flow matrices with a handful of nonzeros per row, so the
// dense tableau this replaces spent most of its time streaming zeros.
// The objective (reduced-cost) row is kept dense: every entering-column
// scan reads all of it anyway, walking a precomputed ascending list of
// the columns that exist (a LessEq row has no artificial, an Equal row
// no slack) rather than every stable id.
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
//
// Column ids: original variable v is column v, the slack/surplus of row
// r is column numVars + 2r, the artificial of row r is column
// numVars + 2r + 1.  An appended row takes the next two ids, so ids stay
// stable as the tableau grows.
#pragma once

#include <vector>

#include "cinderella/lp/carrier_index.hpp"
#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::lp {

class Tableau {
 public:
  Tableau(const Problem& problem, const SimplexOptions& options);

  /// Cold two-phase solve: phaseOne(), then phaseTwo() when the rows
  /// are feasible, all within one maxPivots budget.
  [[nodiscard]] Solution run(const std::vector<double>& objective,
                             double constant);

  /// Phase 1: drives the artificials to zero (when any exist) and pivots
  /// them out of the basis.  Optimal when the rows are feasible,
  /// Infeasible when they are not, IterationLimit when the pivot budget
  /// ran out or the stall guard tripped.
  [[nodiscard]] SolveStatus phaseOne();

  /// Phase 2 from the current basis, which must be primal feasible (after
  /// phaseOne() returned Optimal, or after an earlier phaseTwo()):
  /// prices `objective` (dense over the original variables,
  /// maximization) against the basis and optimizes it, plus `constant`.
  /// A claimed optimum that fails primalFeasibleAtTol() reports
  /// IterationLimit.  `pivots` and `devexPivots` of the result count
  /// from the tableau's construction.
  [[nodiscard]] Solution phaseTwo(const std::vector<double>& objective,
                                  double constant);

  /// Grants a full maxPivots budget from the current pivot count on.
  void resetPivotBudget();

  /// Appends the row `terms <= rhs` (terms over the original columns)
  /// with its slack basic, written over the current basis: every basic
  /// column is a unit column, so subtracting each basic term's row once
  /// clears them all.  The new rhs may be negative.
  void appendLessEqRow(const std::vector<Term>& terms, double rhs);

  /// After appendLessEqRow() on an optimal basis: the dual simplex
  /// restores primal feasibility, then phase 2 finishes as in
  /// phaseTwo() under the current objective row.  Infeasible when a
  /// violated row has no entry to pivot on, a verdict that rests on
  /// pivotTol.
  [[nodiscard]] Solution reoptimize(double constant);

  /// Audit after a claimed-Optimal phase: true when every basic value is
  /// nonnegative within a scale-aware tolerance.  Accumulated pivot
  /// drift can push a row's rhs genuinely negative (an ignored
  /// constraint); callers treat a failed audit as IterationLimit and
  /// re-solve on a fresh tableau under a more conservative rule.
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
  /// budget and right-hand sides a LiveTableau test forces failures with.
  friend struct TableauInspector;
  friend struct LiveTableauInspector;

  /// Column ids of a row's slack/surplus and artificial.
  [[nodiscard]] static int slackColumn(int numVars, int row) {
    return numVars + 2 * row;
  }
  [[nodiscard]] static int artificialColumn(int numVars, int row) {
    return numVars + 2 * row + 1;
  }

  struct Entry {
    int col = 0;
    double val = 0.0;
  };
  using SparseRow = std::vector<Entry>;

  [[nodiscard]] bool isArtificialColumn(int col) const {
    return col >= numOriginal_ && ((col - numOriginal_) % 2) == 1;
  }
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
  /// Installs the objective row for `coeff(col)` and prices out the
  /// current basis so reduced costs are consistent.
  template <typename CoeffFn>
  void setObjectiveRow(CoeffFn coeff);
  [[nodiscard]] double objectiveValue() const { return objRhs_; }

  [[nodiscard]] SolveStatus optimize(bool allowArtificialEntering);
  /// optimize() under the installed objective row, the feasibility
  /// audit, and the point and objective (plus `constant`) on success.
  [[nodiscard]] Solution finishPhaseTwo(double constant);
  /// A result carrying only `status` and the pivot counts.
  [[nodiscard]] Solution stopped(SolveStatus status) const;
  /// Pivots every artificial still basic after phase 1 out on its row's
  /// smallest-index real column; a row with no real entry is redundant
  /// and keeps its artificial at level zero.
  void evictArtificials();
  void fillSolutionValues(Solution* solution) const;

  SimplexOptions opt_;
  PivotRule rule_ = PivotRule::Dantzig;
  int pivotBudget_ = 0;
  int numOriginal_ = 0;
  int m_ = 0;
  int numCols_ = 0;
  std::vector<SparseRow> rows_;
  std::vector<double> rhs_;
  std::vector<double> obj_;
  double objRhs_ = 0.0;
  /// Which stable column ids actually exist in this tableau (a LessEq
  /// row has no artificial, an Equal row has no slack).
  std::vector<unsigned char> colExists_;
  /// The existing column ids, ascending (the pricing scan order).
  std::vector<int> existingCols_;
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

}  // namespace cinderella::lp
