// Sparse-row simplex tableau in standard form, shared by the cold
// two-phase path and the incremental warm-start path.
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
// Column ids are stable under row appends (see lp::Basis in
// simplex.hpp): original variable v is column v, the slack/surplus of
// row r is column numVars + 2r, the artificial of row r is column
// numVars + 2r + 1.  A Basis extracted from a parent tableau therefore
// remains meaningful in any tableau whose constraint rows extend the
// parent's rows, which is exactly what branch-and-bound cuts and
// set-over-structural-core materialization produce.
#pragma once

#include <optional>
#include <vector>

#include "cinderella/lp/carrier_index.hpp"
#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::lp {

class Tableau {
 public:
  Tableau(const Problem& problem, const SimplexOptions& options);

  /// Cold two-phase solve: phase 1 drives artificials to zero (when any
  /// exist), phase 2 optimizes `objective` (dense over the original
  /// variables, maximization) plus `constant`.
  [[nodiscard]] Solution run(const std::vector<double>& objective,
                             double constant);

  /// Warm solve: installs `from` (plus natural slack/surplus basics for
  /// rows beyond the snapshot), repairs primal infeasibility with a
  /// dual-simplex phase, then runs primal phase 2.  Returns nullopt when
  /// the basis cannot be used soundly — singular or missing target
  /// columns, a state that is neither primal- nor dual-feasible, an
  /// artificial left basic at a nonzero level, or an exhausted pivot
  /// budget — in which case the caller must fall back to a cold solve on
  /// a fresh tableau.  A returned Infeasible solution is a genuine
  /// result.
  [[nodiscard]] std::optional<Solution> runWarm(
      const std::vector<double>& objective, double constant,
      const Basis& from);

  /// Snapshot of the current basis (chain into later runWarm calls).
  [[nodiscard]] Basis extractBasis() const;

  /// Simplex iterations (primal + dual); basis-installation
  /// eliminations are counted separately in installPivots().
  [[nodiscard]] int totalPivots() const { return pivots_; }
  [[nodiscard]] int dualPivots() const { return dualPivots_; }
  [[nodiscard]] int installPivots() const { return installPivots_; }
  [[nodiscard]] int devexPivots() const { return devexPivots_; }

  // Introspection for tests.
  [[nodiscard]] int numRows() const { return m_; }
  [[nodiscard]] double rowRhs(int row) const;
  [[nodiscard]] int basicColumn(int row) const;

  /// Stable column ids (also documented on lp::Basis).
  [[nodiscard]] static int slackColumn(int numVars, int row) {
    return numVars + 2 * row;
  }
  [[nodiscard]] static int artificialColumn(int numVars, int row) {
    return numVars + 2 * row + 1;
  }

 private:
  /// Test-only access to pivot() and the column index.
  friend struct TableauInspector;

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
  [[nodiscard]] SolveStatus dualSimplex();
  /// Audit after a claimed-Optimal solve: true when every basic value is
  /// nonnegative within a scale-aware tolerance.  Accumulated pivot
  /// drift can push a row's rhs genuinely negative (an ignored
  /// constraint); callers treat a failed audit as IterationLimit so the
  /// solver re-solves on a fresh tableau under Bland's rule.
  [[nodiscard]] bool primalFeasibleAtTol() const;
  bool evictArtificials();
  /// Gauss-Jordan refactorization to the target basis; false when the
  /// target is singular/unreachable at the pivot tolerance.
  bool installBasis(const Basis& from);
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
  int dualPivots_ = 0;
  int installPivots_ = 0;
  int devexPivots_ = 0;
};

}  // namespace cinderella::lp
