// Two-phase primal simplex solver over a sparse-row tableau, with an
// incremental warm-start path and a presolve/postsolve reduction pass.
//
// Sized for IPET workloads: hundreds of variables and constraints.  The
// default pivot rule is Devex reference-framework pricing, which prices
// columns by reduced cost scaled against an approximate steepest-edge
// weight — on degenerate flow problems it takes far fewer pivots than
// pure Dantzig while costing the same per-iteration scan.  When the
// first-attempt rule (Devex or Dantzig) hits its pivot budget, the
// solver switches to Bland's rule in place (continuing from the current
// basis, not from scratch) with a fresh budget; only if Bland also
// exhausts the budget does the caller see IterationLimit.
//
// Presolve: when SimplexOptions::presolve is set, each solve first runs
// the lp::Reduction fixpoint pass (see presolve.hpp) and the simplex
// only ever sees the reduced rows; solutions and bases are mapped back
// to the original space, so callers observe identical results.
//
// Warm starts: solveWarm() can resume from a Basis snapshot taken from a
// related solve (same constraint-row prefix, possibly extra appended
// rows).  A basis that became primal-infeasible after a bound tightening
// is repaired by a dual-simplex phase — classically a handful of pivots
// instead of a full two-phase solve.  Warm starts never change results:
// any basis that cannot be installed or proves unusable falls back to
// the cold two-phase path.
#pragma once

#include <string>
#include <vector>

#include "cinderella/lp/problem.hpp"

namespace cinderella::lp {

enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit };

[[nodiscard]] const char* solveStatusStr(SolveStatus status);

/// Entering-column selection strategy.
enum class PivotRule {
  /// Most negative reduced cost; fast, but may cycle on degeneracy.
  Dantzig,
  /// Smallest-index negative reduced cost; provably terminating.
  Bland,
  /// Devex reference-framework pricing: maximizes rc^2 / weight, where
  /// the weights approximate steepest-edge norms and are updated from
  /// the pivot row.  Same O(cols) scan as Dantzig, far fewer pivots on
  /// degenerate flow systems.
  Devex,
};

[[nodiscard]] const char* pivotRuleStr(PivotRule rule);

/// A simplex basis snapshot: which column is basic in each constraint
/// row.  Columns are identified by stable ids that survive appending
/// rows to the problem — original variable v is column v, the
/// slack/surplus of row r is column numVars + 2r, and the artificial of
/// row r is column numVars + 2r + 1 — so a basis extracted from a parent
/// problem can seed any child that shares the parent's constraint-row
/// prefix (e.g. the same set plus one branch-and-bound cut).
struct Basis {
  int numVars = 0;
  /// Basic column id per constraint row, in row order.
  std::vector<int> basicCol;

  [[nodiscard]] bool empty() const { return basicCol.empty(); }
};

/// What the presolve reduction pass removed ahead of one solve.  All
/// zero when presolve is disabled or found nothing to reduce.
struct PresolveStats {
  /// Constraint rows dropped (substituted away, forced, redundant, or
  /// duplicates).
  int rowsRemoved = 0;
  /// Variables eliminated at a fixed value (lo == hi after bound
  /// propagation, e.g. blocks pinned to 1 or forced to 0).
  int colsFixed = 0;
  /// Variables eliminated by singleton-equality substitution.
  int substitutions = 0;
  /// Fixpoint rounds the reduction pass ran before quiescing.
  int propagationRounds = 0;

  friend bool operator==(const PresolveStats&, const PresolveStats&) =
      default;
};

struct Solution {
  SolveStatus status = SolveStatus::Infeasible;
  /// Objective value in the problem's own sense (valid when Optimal).
  double objective = 0.0;
  /// Value of every original variable (valid when Optimal).
  std::vector<double> values;
  /// Total simplex iterations across all phases (primal and dual,
  /// including the continued Bland pivots when the in-place restart
  /// kicked in, and any iterations wasted on a failed warm attempt).
  /// Basis-installation eliminations are counted in installPivots, not
  /// here, so warm and cold pivot totals compare like for like.
  int pivots = 0;
  /// Pivots spent in the dual-simplex repair phase of a warm start.
  int dualPivots = 0;
  /// Gauss-Jordan eliminations spent installing a warm basis
  /// (refactorization work, bounded by the row count; not simplex
  /// iterations and excluded from `pivots`).
  int installPivots = 0;
  /// True when the configured rule hit maxPivots (or the
  /// degenerate-stall guard) and the solve was re-run from scratch on a
  /// fresh tableau under a more conservative rule (Dantzig, then
  /// Bland).
  bool blandRestart = false;
  /// True when the solve ran from the supplied warm basis (no cold
  /// two-phase rebuild).
  bool warmUsed = false;
  /// True when a warm basis was supplied but could not be used and the
  /// solve fell back to the cold path.
  bool warmFailed = false;
  /// Pivots chosen by Devex pricing (subset of `pivots`; the rest were
  /// Dantzig/Bland picks or dual-simplex repairs).
  int devexPivots = 0;
  /// What the presolve pass removed before the simplex ran.
  PresolveStats presolve;
};

struct SimplexOptions {
  /// Hard cap on pivots across both phases; exceeded => IterationLimit.
  int maxPivots = 200000;
  /// Pivot-element magnitude below which a column is treated as zero.
  double pivotTol = 1e-9;
  /// Feasibility/optimality tolerance on reduced costs and residuals.
  double tol = 1e-7;
  /// Entering-column rule for the first attempt.
  PivotRule pivotRule = PivotRule::Devex;
  /// On IterationLimit (budget exhausted or the degenerate-stall guard
  /// tripped), re-solve from scratch under progressively more
  /// conservative rules — Dantzig, then Bland, which cannot cycle.
  /// Cycling/stalling is the usual culprit and a fresh tableau carries
  /// none of the numeric drift the stalled one accumulated.
  bool blandRetry = true;
  /// Run the lp::Reduction presolve pass before the simplex and map the
  /// solution/basis back afterwards.  Results are identical either way;
  /// the reduced tableau is just smaller.
  bool presolve = true;
};

/// Solves `problem` and returns its optimum, or the failure status.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {});

class Reduction;

/// Solves `problem`, optionally warm-starting from `warmBasis` (a basis
/// extracted from a solve whose constraint rows are a prefix of this
/// problem's rows).  When the warm basis cannot be installed or leaves
/// the solver in a state that is neither primal- nor dual-feasible, the
/// solve silently falls back to the cold two-phase path
/// (Solution::warmFailed reports that).  When `finalBasis` is non-null
/// and the solve is Optimal, it receives the final basis for chaining
/// into subsequent warm starts.  Bounds are bit-identical to solve().
///
/// `presolved`, when non-null and options.presolve is set, is a
/// Reduction of exactly `problem`'s rows (under any objective): the
/// solve replays `problem`'s objective through it instead of reducing
/// the rows again, with a result identical to presolving here.
[[nodiscard]] Solution solveWarm(const Problem& problem,
                                 const SimplexOptions& options,
                                 const Basis* warmBasis, Basis* finalBasis,
                                 const Reduction* presolved = nullptr);

}  // namespace cinderella::lp
