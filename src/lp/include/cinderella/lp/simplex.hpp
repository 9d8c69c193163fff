// Two-phase primal simplex solver over a sparse-row tableau, with a
// presolve/postsolve reduction pass and a live tableau that answers
// several objectives over the same rows.
//
// Sized for IPET workloads: hundreds of variables and constraints.  The
// default pivot rule is Devex reference-framework pricing, which prices
// columns by reduced cost scaled against an approximate steepest-edge
// weight — on degenerate flow problems it takes far fewer pivots than
// pure Dantzig while costing the same per-iteration scan.  When the
// first-attempt rule hits its pivot budget (or stalls, or its optimum
// fails the feasibility audit), the solver re-solves from scratch under
// Dantzig, then Bland, each with a fresh budget; only if the last rung
// also fails does the caller see IterationLimit.
//
// Presolve: when SimplexOptions::presolve is set, each solve first runs
// the lp::Reduction fixpoint pass (see presolve.hpp) and the simplex
// only ever sees the reduced rows; solutions are mapped back to the
// original space, so callers observe identical results.
//
// Live tableau: the analyzer asks three questions of every constraint
// set — is it feasible, what is its largest worst-case cost, what is its
// smallest best-case cost.  A LiveTableau answers them on one tableau:
// phase 1 once, then phase 2 per objective, each continuing from the
// previous optimal (hence still feasible) basis.  Any phase that cannot
// finish cleanly falls back to a from-scratch solve, so the answers are
// those of solve().
#pragma once

#include <memory>
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

/// Empty placeholder kept only for perfbench/, which passes
/// `lp::Basis{}` as SolveCache::insert's ignored fourth argument.  No
/// solver state is ever stored in it.
struct Basis {};

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
  /// Total simplex iterations across all phases, including those
  /// wasted on attempts that were abandoned for a from-scratch retry.
  int pivots = 0;
  /// True when the configured rule hit maxPivots (or the
  /// degenerate-stall guard, or the feasibility audit failed, or a live
  /// tableau phase faulted) and the solve was re-run from scratch on a
  /// fresh tableau under a more conservative rule (Dantzig, then
  /// Bland).
  bool blandRestart = false;
  /// Pivots chosen by Devex pricing (subset of `pivots`; the rest were
  /// Dantzig/Bland picks).
  int devexPivots = 0;
  /// What the presolve pass removed before the simplex ran.
  PresolveStats presolve;
};

struct SimplexOptions {
  /// Hard cap on pivots across both phases of a cold solve, and on each
  /// phase-2 call of a LiveTableau; exceeded => IterationLimit.
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
  /// solution back afterwards.  Results are identical either way;
  /// the reduced tableau is just smaller.
  bool presolve = true;
};

/// Solves `problem` and returns its optimum, or the failure status.
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {});

class Reduction;
class Tableau;

/// One constraint set's rows on a single tableau, kept alive across the
/// feasibility probe and any number of objectives over those rows.
///
/// The rows are presolved once (when options.presolve) and the tableau is
/// built on the reduced rows, or on the rows as given when presolve is
/// off or removed nothing.  feasibility() runs phase 1.  Each solve()
/// prices its problem's objective against the current basis and runs
/// phase 2 from it, with a full maxPivots budget: the first solve starts
/// from the phase-1 basis, later ones from the previous optimum.
///
/// A phase that hits IterationLimit, fails the feasibility audit or
/// throws InjectedFaultError retires the tableau, and that call re-solves
/// from scratch on the shared reduction under Dantzig, then Bland, the
/// same ladder solve() climbs after its first attempt.  Later calls on a
/// retired tableau solve from scratch exactly as solve() does.  Results
/// therefore never depend on the tableau being alive; only the pivot
/// counts do.
class LiveTableau {
 public:
  /// `rows` supplies the constraint rows (its objective is ignored) and
  /// must outlive the LiveTableau.
  LiveTableau(const Problem& rows, const SimplexOptions& options);
  ~LiveTableau();
  LiveTableau(const LiveTableau&) = delete;
  LiveTableau& operator=(const LiveTableau&) = delete;

  /// The feasibility probe: Optimal when the rows are feasible,
  /// Infeasible when they are not (no point is returned).  Runs phase 1
  /// unless an earlier call has; `pivots` counts this call's pivots.
  [[nodiscard]] Solution feasibility();

  /// The optimum of `problem`, whose rows must be exactly the rows given
  /// at construction (objective and sense are free).
  [[nodiscard]] Solution solve(const Problem& problem);

 private:
  /// Test-only access to the live tableau, to force its failure paths.
  friend struct LiveTableauInspector;

  /// The rows the simplex sees: the reduced rows, or the rows as given.
  [[nodiscard]] const Problem& effective() const;
  /// Runs `phase` on the live tableau and returns its solution with the
  /// pivots it spent.  A phase that ends in IterationLimit or throws
  /// InjectedFaultError (reported as IterationLimit) retires the tableau.
  template <typename Phase>
  [[nodiscard]] Solution runLive(Phase phase);
  /// Phase 1 with the feasibility audit, through runLive; on success
  /// records the verdict.
  [[nodiscard]] Solution runPhaseOne();

  SimplexOptions options_;
  const Problem* rows_;
  /// The presolve of the rows, kept only when it removed something.
  std::unique_ptr<Reduction> reduction_;
  PresolveStats presolve_;
  /// Null once retired (or when presolve proved infeasibility).
  std::unique_ptr<Tableau> tableau_;
  /// Presolve or phase 1 decided feasibility; `infeasible_` holds the
  /// verdict, and an infeasible verdict answers every later call.
  bool feasibilityKnown_ = false;
  bool infeasible_ = false;
};

}  // namespace cinderella::lp
