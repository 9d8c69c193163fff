// Presolve/postsolve reduction engine: shrinks an lp::Problem before it
// reaches the simplex, and maps reduced-space solutions back to the
// original space afterwards.
//
// The reduction is a fixpoint pass that performs, on rows whose
// coefficients and right-hand side are exactly integral (checked
// __int128 arithmetic throughout — a reduction is only ever applied when
// it is provably exact):
//
//   (a) singleton-equality substitution: an Equal row with a unit
//       coefficient on some variable v whose solved-out form
//       v = rhs - sum(a_j x_j) has only nonnegative coefficients and
//       constant (so v >= 0 is implied and the implicit bound can be
//       dropped with the row).  Flow-conservation rows
//       x_i = sum d_in are exactly this shape, so IPET systems roughly
//       halve their variable count here.
//   (b) bound propagation through sum-in = sum-out rows: per-row
//       minimum/maximum activities computed from the implicit x >= 0
//       bounds and upper bounds harvested from singleton rows; a row
//       whose rhs pins the activity at one of those extremes forces
//       every participating variable to its bound.
//   (c) fixed-variable elimination (lo == hi): entry/exit blocks pinned
//       to 1, blocks forced to 0, and anything propagation fixes are
//       folded into the right-hand sides and the objective constant.
//   (d) redundant/dominated row removal: rows that can never bind given
//       the known bounds, and duplicate rows (keeping the tighter rhs;
//       contradictory Equal duplicates prove infeasibility).
//
// Soundness: every reduction is a bijection between the feasible
// regions of the original and reduced problems that preserves the
// objective value, so statuses and optima are identical; the simplex
// just walks a smaller tableau.  Infeasibility is only ever concluded
// from exact integer arithmetic (an integral system that is infeasible
// is infeasible by a margin of at least 1, far beyond the simplex
// feasibility tolerance), so presolve and the unreduced simplex always
// agree on the verdict.
#pragma once

#include <vector>

#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::lp {

/// The result of presolving one Problem: the reduced problem plus the
/// postsolve stack needed to map solutions back.
class Reduction {
 public:
  /// Runs the fixpoint reduction pass over `original`.
  [[nodiscard]] static Reduction reduce(const Problem& original,
                                        const SimplexOptions& options);

  /// True when the reduction proved the problem infeasible outright
  /// (exact integer arithmetic only; the simplex would agree).  The
  /// reduced problem is not meaningful in this case.
  [[nodiscard]] bool provedInfeasible() const { return infeasible_; }

  /// True when at least one row or column was eliminated; when false
  /// the reduced problem is just a copy and callers should solve the
  /// original directly.
  [[nodiscard]] bool effective() const {
    return stats_.rowsRemoved > 0 || stats_.colsFixed > 0 ||
           stats_.substitutions > 0;
  }

  [[nodiscard]] const Problem& reduced() const { return reduced_; }
  [[nodiscard]] const PresolveStats& stats() const { return stats_; }

  /// The reduced-space form of `objective` over the original problem's
  /// variables: replays the recorded substitutions and fixes on it.
  /// The rows are reduced without looking at the objective, and
  /// reduced()'s own objective is this replay of the original one, so
  /// one reduction serves every objective over the same rows exactly as
  /// a fresh reduce() under that objective would.
  [[nodiscard]] LinearExpr reducedObjective(const LinearExpr& objective) const;

  /// Maps a reduced-space solution point back to the original variable
  /// space: surviving variables copy through, fixed variables take their
  /// fixed value, substituted variables are recomputed from their
  /// recorded row (replayed in reverse elimination order).
  [[nodiscard]] std::vector<double> postsolveValues(
      const std::vector<double>& reducedValues) const;

 private:
  /// Test-only view of the complete output (the golden presolve test
  /// hashes every member below).
  friend struct ReductionInspector;

  /// One postsolve-stack entry restoring an eliminated variable.
  struct Restore {
    int var = 0;
    /// Constant part of the restored value.
    double constant = 0.0;
    /// For substitutions: v = constant + sum(coeff * x[term.var]) over
    /// original variable ids; empty for plain fixes.
    std::vector<Term> terms;
  };

  Problem reduced_;
  PresolveStats stats_;
  bool infeasible_ = false;
  int origVars_ = 0;
  /// Original var -> reduced var index, or -1 when eliminated.
  std::vector<int> varMap_;
  /// Reduced var -> original var.
  std::vector<int> reducedVars_;
  /// Eliminated variables in elimination order (replayed in reverse).
  std::vector<Restore> restores_;
};

}  // namespace cinderella::lp
