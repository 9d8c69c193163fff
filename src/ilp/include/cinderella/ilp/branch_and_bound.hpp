// Pure integer linear programming by branch-and-bound over the LP
// relaxation, as used by the paper's ILP step.
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
  /// Number of LP relaxations solved.  Today every expanded node solves
  /// exactly one relaxation, so nodesExpanded == lpCalls.
  int lpCalls = 0;
  /// True when the root relaxation was already integral (paper's claim).
  bool firstRelaxationIntegral = false;
  /// Total simplex pivots summed over all LP calls.
  int totalPivots = 0;
  /// Incumbent-objective recomputations whose 64-bit fast path
  /// overflowed and were redone in __int128 (see checked_math.hpp).
  int checkedPromotions = 0;
  /// LP calls that fell back to Bland's rule after Dantzig cycled.
  int blandRestarts = 0;
  /// LP calls that ran from a warm basis (parent node or seed), skipping
  /// the cold two-phase solve.
  int warmStarts = 0;
  /// LP calls solved cold (no usable warm basis).
  int coldStarts = 0;
  /// Dual-simplex repair pivots across all warm-started LP calls
  /// (included in totalPivots).
  int dualPivots = 0;
  /// Basis-installation eliminations across all warm-started LP calls
  /// (refactorization work; NOT included in totalPivots).
  int installPivots = 0;
  /// Warm bases that could not be used (the call fell back cold).
  int warmFailures = 0;
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
  /// Final basis of the root LP relaxation (valid when haveRootBasis).
  /// The analyzer chains it into the opposite-objective ILP over the
  /// same constraint set: min and max share one basis as each other's
  /// warm-start seed.
  lp::Basis rootBasis;
  bool haveRootBasis = false;
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
  /// Warm-start child nodes from their parent's final basis (a branch
  /// cut is repaired by a few dual pivots instead of a full two-phase
  /// solve).  Results are bit-identical either way; off is for A/B
  /// measurement (CLI --no-warm-start).
  bool warmStart = true;
  /// Optional external seed basis for the root relaxation (e.g. the
  /// shared structural basis of the analyzer's constraint-set family).
  /// Must come from a problem whose rows are a prefix of this one's.
  /// Only consulted when warmStart is on; may be null.
  const lp::Basis* rootBasis = nullptr;
  /// Optional presolve of exactly this problem's rows (under any
  /// objective), shared with other solves over the same rows: the root
  /// relaxation replays its objective through it instead of reducing
  /// again (see lp::solveWarm).  Child nodes carry extra cut rows and
  /// presolve their own.  May be null.
  const lp::Reduction* rootReduction = nullptr;
  lp::SimplexOptions lpOptions;
};

/// Solves `problem` with every variable required to be a nonnegative
/// integer.
[[nodiscard]] IlpSolution solve(const lp::Problem& problem,
                                const IlpOptions& options = {});

}  // namespace cinderella::ilp
