#include "cinderella/lp/simplex.hpp"

#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "cinderella/lp/presolve.hpp"
#include "cinderella/lp/tableau.hpp"
#include "cinderella/support/metrics_sink.hpp"

namespace cinderella::lp {

const char* solveStatusStr(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal:
      return "optimal";
    case SolveStatus::Infeasible:
      return "infeasible";
    case SolveStatus::Unbounded:
      return "unbounded";
    case SolveStatus::IterationLimit:
      return "iteration-limit";
  }
  return "?";
}

const char* pivotRuleStr(PivotRule rule) {
  switch (rule) {
    case PivotRule::Dantzig:
      return "dantzig";
    case PivotRule::Bland:
      return "bland";
    case PivotRule::Devex:
      return "devex";
  }
  return "?";
}

namespace {

/// Dense maximization objective (negated when the problem minimizes)
/// plus its constant, for a given problem's variable space.
struct DenseObjective {
  std::vector<double> coeffs;
  double constant = 0.0;
};

DenseObjective maximizedObjective(const LinearExpr& objective, Sense sense,
                                  int numVars) {
  const bool minimize = (sense == Sense::Minimize);
  DenseObjective out;
  out.coeffs.assign(static_cast<std::size_t>(numVars), 0.0);
  for (const auto& t : objective.terms()) {
    out.coeffs[static_cast<std::size_t>(t.var)] =
        minimize ? -t.coeff : t.coeff;
  }
  out.constant = minimize ? -objective.constant() : objective.constant();
  return out;
}

DenseObjective maximizedObjective(const Problem& problem) {
  return maximizedObjective(problem.objective(), problem.sense(),
                            problem.numVars());
}

void reportToSink(support::MetricsSink* sink, const Solution& solution,
                  std::chrono::steady_clock::time_point solveStart) {
  if (sink == nullptr) return;
  sink->add("lp.solves", 1);
  if (solution.blandRestart) sink->add("lp.blandRestarts", 1);
  if (solution.warmUsed) sink->add("lp.warmStarts", 1);
  if (solution.warmFailed) sink->add("lp.warmFailures", 1);
  sink->observe("lp.pivots", solution.pivots);
  if (solution.dualPivots > 0) {
    sink->observe("lp.dualPivots", solution.dualPivots);
  }
  if (solution.installPivots > 0) {
    sink->observe("lp.installPivots", solution.installPivots);
  }
  if (solution.devexPivots > 0) {
    sink->observe("lp.devexPivots", solution.devexPivots);
  }
  if (solution.presolve.rowsRemoved > 0) {
    sink->observe("lp.presolveRowsRemoved", solution.presolve.rowsRemoved);
  }
  if (solution.presolve.colsFixed + solution.presolve.substitutions > 0) {
    sink->observe("lp.presolveColsRemoved",
                  solution.presolve.colsFixed +
                      solution.presolve.substitutions);
  }
  sink->observe("lp.micros",
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - solveStart)
                    .count());
}

}  // namespace

Solution solveWarm(const Problem& problem, const SimplexOptions& options,
                   const Basis* warmBasis, Basis* finalBasis,
                   const Reduction* presolved) {
  // Observability is off on the default path: one relaxed atomic load.
  support::MetricsSink* const sink = support::metricsSink();
  const auto solveStart = sink != nullptr
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  const bool minimize = (problem.sense() == Sense::Minimize);

  // Presolve: shrink the problem before any tableau is built, or take
  // the caller's reduction of the same rows.  The reduction is dropped
  // again when it removed nothing (the copy would only add overhead)
  // and short-circuits exact infeasibility.
  std::optional<Reduction> owned;
  const Reduction* reduction = nullptr;
  PresolveStats presolveStats;
  if (options.presolve) {
    if (presolved == nullptr) {
      owned.emplace(Reduction::reduce(problem, options));
      presolved = &*owned;
    }
    presolveStats = presolved->stats();
    if (presolved->provedInfeasible()) {
      Solution solution;
      solution.status = SolveStatus::Infeasible;
      solution.presolve = presolveStats;
      reportToSink(sink, solution, solveStart);
      return solution;
    }
    if (presolved->effective()) reduction = presolved;
  }

  const Problem& effective = reduction ? reduction->reduced() : problem;
  // A shared reduction may have been made under another objective, so
  // this problem's objective is always replayed through it.
  const DenseObjective objective =
      reduction != nullptr
          ? maximizedObjective(
                reduction->reducedObjective(problem.objective()),
                problem.sense(), effective.numVars())
          : maximizedObjective(problem);

  Solution solution;
  int wastedWarmPivots = 0;
  int wastedInstallPivots = 0;
  int wastedDevexPivots = 0;
  bool warmFailed = false;
  bool solved = false;
  bool solvedOnReduced = false;

  if (warmBasis != nullptr && !warmBasis->empty()) {
    // Warm ladder: reduced tableau with the translated basis first,
    // then the original tableau with the basis as supplied.  Only when
    // both warm attempts fail does the solve fall back cold — so
    // presolve never turns a previously-working warm start into a
    // failure.
    if (reduction) {
      if (std::optional<Basis> translated =
              reduction->translateBasis(*warmBasis)) {
        Tableau warm(effective, options);
        if (std::optional<Solution> warmSolution =
                warm.runWarm(objective.coeffs, objective.constant,
                             *translated)) {
          solution = std::move(*warmSolution);
          solution.devexPivots = warm.devexPivots();
          solvedOnReduced = true;
          solved = true;
          if (finalBasis != nullptr &&
              solution.status == SolveStatus::Optimal) {
            *finalBasis = reduction->postsolveBasis(warm.extractBasis());
          }
        } else {
          wastedWarmPivots += warm.totalPivots();
          wastedInstallPivots += warm.installPivots();
          wastedDevexPivots += warm.devexPivots();
        }
      }
    }
    if (!solved && reduction) {
      const DenseObjective origObjective = maximizedObjective(problem);
      Tableau warm(problem, options);
      if (std::optional<Solution> warmSolution = warm.runWarm(
              origObjective.coeffs, origObjective.constant, *warmBasis)) {
        solution = std::move(*warmSolution);
        solution.pivots += wastedWarmPivots;
        solution.installPivots += wastedInstallPivots;
        solution.devexPivots = warm.devexPivots() + wastedDevexPivots;
        solved = true;
        if (finalBasis != nullptr &&
            solution.status == SolveStatus::Optimal) {
          *finalBasis = warm.extractBasis();
        }
      } else {
        wastedWarmPivots += warm.totalPivots();
        wastedInstallPivots += warm.installPivots();
        wastedDevexPivots += warm.devexPivots();
        warmFailed = true;
      }
    } else if (!solved) {
      Tableau warm(problem, options);
      if (std::optional<Solution> warmSolution = warm.runWarm(
              objective.coeffs, objective.constant, *warmBasis)) {
        solution = std::move(*warmSolution);
        solution.devexPivots = warm.devexPivots();
        solved = true;
        if (finalBasis != nullptr &&
            solution.status == SolveStatus::Optimal) {
          *finalBasis = warm.extractBasis();
        }
      } else {
        // The basis was unusable; the cold re-solve below still pays
        // for the pivots spent discovering that.
        wastedWarmPivots += warm.totalPivots();
        wastedInstallPivots += warm.installPivots();
        wastedDevexPivots += warm.devexPivots();
        warmFailed = true;
      }
    }
  }

  if (!solved) {
    std::optional<Tableau> cold;
    cold.emplace(effective, options);
    solution = cold->run(objective.coeffs, objective.constant);
    solution.devexPivots = cold->devexPivots();
    if (solution.status == SolveStatus::IterationLimit &&
        options.blandRetry) {
      // The configured rule exhausted its budget or stalled on a
      // degenerate vertex.  Epsilon-step pivots through near-singular
      // elements erode the tableau numerically, so continuing from the
      // stalled basis is hopeless — re-solve from scratch under
      // progressively more conservative rules: Dantzig (cheap pricing,
      // rarely stalls on IPET systems), then Bland (cannot cycle).
      // Only the last rung's failure is reported upward.
      for (const PivotRule retryRule :
           {PivotRule::Dantzig, PivotRule::Bland}) {
        if (retryRule == options.pivotRule) continue;
        const int wastedPivots = solution.pivots;
        const int wastedDevex = solution.devexPivots;
        SimplexOptions retryOptions = options;
        retryOptions.pivotRule = retryRule;
        cold.emplace(effective, retryOptions);
        solution = cold->run(objective.coeffs, objective.constant);
        solution.pivots += wastedPivots;
        solution.devexPivots = wastedDevex;
        solution.blandRestart = true;
        if (solution.status != SolveStatus::IterationLimit) break;
      }
    }
    solution.pivots += wastedWarmPivots;
    solution.installPivots += wastedInstallPivots;
    solution.devexPivots += wastedDevexPivots;
    solution.warmFailed = warmFailed;
    solvedOnReduced = reduction != nullptr;
    if (finalBasis != nullptr && solution.status == SolveStatus::Optimal) {
      *finalBasis = reduction
                        ? reduction->postsolveBasis(cold->extractBasis())
                        : cold->extractBasis();
    }
  }

  if (solvedOnReduced && solution.status == SolveStatus::Optimal) {
    solution.values = reduction->postsolveValues(solution.values);
  }
  solution.presolve = presolveStats;
  if (solution.status == SolveStatus::Optimal && minimize) {
    solution.objective = -solution.objective;
  }

  reportToSink(sink, solution, solveStart);
  return solution;
}

Solution solve(const Problem& problem, const SimplexOptions& options) {
  return solveWarm(problem, options, nullptr, nullptr);
}

}  // namespace cinderella::lp
