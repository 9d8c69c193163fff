// Pure integer linear programming by branch-and-bound over the LP
// relaxation, as used by the paper's ILP step.
//
// The search is depth-first and branches on the lowest-index fractional
// variable, so flow counts come before cache variables.  The root comes
// from a LiveTableau; each child re-optimizes its parent's tableau plus
// one cut row (lp::BranchPoint), its sibling a copy of it.
//
// The solver is instrumented: it records how many LP relaxations were
// solved and whether the *first* relaxation already produced an integral
// point.  Section III-D of the paper observes that for IPET constraint
// systems "the first call to the linear program package resulted in an
// integer valued solution"; the stats let benchmarks verify that claim.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cinderella/lp/problem.hpp"
#include "cinderella/lp/simplex.hpp"

namespace cinderella::ilp {

enum class IlpStatus { Optimal, Infeasible, Unbounded, Limit, Interrupted };

[[nodiscard]] const char* ilpStatusStr(IlpStatus status);

struct IlpStats {
  /// Branch-and-bound nodes expanded (subproblems whose relaxation was
  /// solved).  This — never lpCalls — is what IlpOptions::maxNodes
  /// budgets, so node accounting and LP-call accounting cannot drift
  /// apart if a node ever solves more (or fewer) than one LP.
  int nodesExpanded = 0;
  /// Number of LP relaxations solved: one per expanded node, plus the
  /// cold solve of a child whose dive failed or called it infeasible.
  int lpCalls = 0;
  /// Children solved cold, and of those the ones whose dive failed
  /// (its subtree goes cold too) or called them infeasible.
  int coldNodes = 0;
  int diveFallbacks = 0;
  int infeasibleConfirmations = 0;
  /// True when the root relaxation was already integral (paper's claim).
  bool firstRelaxationIntegral = false;
  /// Total simplex pivots summed over all LP calls.
  int totalPivots = 0;
  /// Incumbent-objective recomputations whose 64-bit fast path
  /// overflowed and were redone in __int128 (see checked_math.hpp).
  int checkedPromotions = 0;
  /// LP calls that fell back to Bland's rule after Dantzig cycled.
  int blandRestarts = 0;
  /// Devex reference-framework pivots across all LP calls (included in
  /// totalPivots; the remainder ran under Dantzig or Bland).
  int devexPivots = 0;
  /// Presolve reductions summed over all LP calls: constraint rows
  /// removed, variables fixed at an exact value, and variables
  /// substituted out through singleton equalities.
  int presolveRowsRemoved = 0;
  int presolveColsFixed = 0;
  int presolveSubstitutions = 0;
  /// Presolve fixpoint rounds summed over all LP calls.
  int presolveRounds = 0;
};

struct IlpSolution {
  IlpStatus status = IlpStatus::Infeasible;
  double objective = 0.0;
  /// Integral assignment for every variable (valid when Optimal; also
  /// filled on Limit/Interrupted when an incumbent was found).
  std::vector<double> values;
  /// Incumbent objective recomputed exactly in checked 64-bit integer
  /// arithmetic (promoting to __int128 on overflow), valid when
  /// objectiveIsExact.  `objective` is a double and silently loses
  /// precision past 2^53; this does not.
  std::int64_t objectiveExact = 0;
  /// True when every objective coefficient was integral so the exact
  /// recomputation applies.
  bool objectiveIsExact = false;
  /// The exact objective left 64-bit range; objectiveExact is saturated
  /// to the nearest representable bound.
  bool objectiveSaturated = false;
  /// Root LP-relaxation objective — a sound bound on the ILP optimum
  /// (upper for Maximize, lower for Minimize).  Valid when
  /// haveRelaxationBound; the degradation ladder falls back to it.
  double relaxationBound = 0.0;
  bool haveRelaxationBound = false;
  IlpStats stats;
};

struct IlpOptions {
  /// Maximum branch-and-bound nodes expanded (IlpStats::nodesExpanded)
  /// before giving up with Limit.
  int maxNodes = 100000;
  /// |x - round(x)| below this counts as integral.
  double intTol = 1e-6;
  /// Polled once per node; returning true stops the search with
  /// IlpStatus::Interrupted (incumbent, if any, is preserved).  Used by
  /// the analyzer's deadline so a set never runs past its budget.
  std::function<bool()> interrupt;
  /// The constraint set's live tableau over exactly `problem`'s rows:
  /// the root relaxation is its solve(problem), and the children dive
  /// from copies of it, which leave it untouched.  Null: solve() builds
  /// its own over `problem`.
  lp::LiveTableau* live = nullptr;
  lp::SimplexOptions lpOptions;
};

/// Solves `problem` with every variable required to be a nonnegative
/// integer.
[[nodiscard]] IlpSolution solve(const lp::Problem& problem,
                                const IlpOptions& options = {});

}  // namespace cinderella::ilp
