#include "cinderella/lp/simplex.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cinderella/lp/presolve.hpp"
#include "cinderella/lp/tableau.hpp"
#include "cinderella/support/error.hpp"
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

/// `problem`'s objective over the variables the simplex sees: replayed
/// through `reduction` when there is one (a shared reduction may have
/// been made under another objective), the problem's own otherwise.
DenseObjective effectiveObjective(const Problem& problem,
                                  const Reduction* reduction) {
  if (reduction == nullptr) {
    return maximizedObjective(problem.objective(), problem.sense(),
                              problem.numVars());
  }
  return maximizedObjective(reduction->reducedObjective(problem.objective()),
                            problem.sense(), reduction->reduced().numVars());
}

/// The from-scratch retry ladder after an attempt under
/// options.pivotRule ended in `failed` (IterationLimit).  The configured
/// rule exhausted its budget, stalled on a degenerate vertex or drifted
/// out of the feasible region.  Epsilon-step pivots through
/// near-singular elements erode a tableau numerically, so continuing
/// from the stalled basis is hopeless — re-solve `effective` from
/// scratch under progressively more conservative rules: Dantzig (cheap
/// pricing, rarely stalls on IPET systems), then Bland (cannot cycle).
/// Only the last rung's failure is reported upward; pivots of every
/// attempt add up.
Solution retryFromScratch(const Problem& effective,
                          const DenseObjective& objective,
                          const SimplexOptions& options, Solution failed) {
  Solution solution = std::move(failed);
  if (!options.blandRetry) return solution;
  for (const PivotRule retryRule : {PivotRule::Dantzig, PivotRule::Bland}) {
    if (retryRule == options.pivotRule) continue;
    const int wastedPivots = solution.pivots;
    const int wastedDevex = solution.devexPivots;
    SimplexOptions retryOptions = options;
    retryOptions.pivotRule = retryRule;
    Tableau tableau(effective, retryOptions);
    solution = tableau.run(objective.coeffs, objective.constant);
    solution.pivots += wastedPivots;
    solution.devexPivots += wastedDevex;
    solution.blandRestart = true;
    if (solution.status != SolveStatus::IterationLimit) break;
  }
  return solution;
}

/// A cold solve of `effective`: the configured rule on a fresh tableau,
/// then the retry ladder.
Solution solveCold(const Problem& effective, const DenseObjective& objective,
                   const SimplexOptions& options) {
  Tableau tableau(effective, options);
  Solution solution = tableau.run(objective.coeffs, objective.constant);
  if (solution.status != SolveStatus::IterationLimit) return solution;
  return retryFromScratch(effective, objective, options, std::move(solution));
}

/// Maps a solution of the effective problem back to `problem`'s space
/// and sense.
void postsolve(const Problem& problem, const Reduction* reduction,
               const PresolveStats& presolve, Solution* solution) {
  if (solution->status == SolveStatus::Optimal) {
    if (reduction != nullptr) {
      solution->values = reduction->postsolveValues(solution->values);
    }
    if (problem.sense() == Sense::Minimize) {
      solution->objective = -solution->objective;
    }
  }
  solution->presolve = presolve;
}

/// Reports one answered LP to the metrics sink, when one is installed.
class SinkReport {
 public:
  SinkReport()
      : sink_(support::metricsSink()),
        start_(sink_ != nullptr ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{}) {}

  void report(const Solution& solution) const {
    if (sink_ == nullptr) return;
    sink_->add("lp.solves", 1);
    if (solution.blandRestart) sink_->add("lp.blandRestarts", 1);
    sink_->observe("lp.pivots", solution.pivots);
    if (solution.devexPivots > 0) {
      sink_->observe("lp.devexPivots", solution.devexPivots);
    }
    if (solution.presolve.rowsRemoved > 0) {
      sink_->observe("lp.presolveRowsRemoved", solution.presolve.rowsRemoved);
    }
    if (solution.presolve.colsFixed + solution.presolve.substitutions > 0) {
      sink_->observe("lp.presolveColsRemoved",
                     solution.presolve.colsFixed +
                         solution.presolve.substitutions);
    }
    sink_->observe("lp.micros",
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }

 private:
  // Observability is off on the default path: one relaxed atomic load.
  support::MetricsSink* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

Solution solve(const Problem& problem, const SimplexOptions& options) {
  const SinkReport sink;
  // Presolve: shrink the problem before any tableau is built.  The
  // reduction is dropped again when it removed nothing (the copy would
  // only add overhead) and short-circuits exact infeasibility.
  std::optional<Reduction> reduction;
  PresolveStats presolve;
  if (options.presolve) {
    reduction.emplace(Reduction::reduce(problem, options));
    presolve = reduction->stats();
    if (reduction->provedInfeasible()) {
      Solution solution;
      solution.status = SolveStatus::Infeasible;
      solution.presolve = presolve;
      sink.report(solution);
      return solution;
    }
    if (!reduction->effective()) reduction.reset();
  }
  const Reduction* const effective = reduction ? &*reduction : nullptr;
  Solution solution =
      solveCold(effective != nullptr ? effective->reduced() : problem,
                effectiveObjective(problem, effective), options);
  postsolve(problem, effective, presolve, &solution);
  sink.report(solution);
  return solution;
}

LiveTableau::LiveTableau(const Problem& rows, const SimplexOptions& options)
    : options_(options), rows_(&rows) {
  if (options.presolve) {
    Reduction reduction = Reduction::reduce(rows, options);
    presolve_ = reduction.stats();
    if (reduction.provedInfeasible()) {
      feasibilityKnown_ = true;
      infeasible_ = true;
      return;
    }
    if (reduction.effective()) {
      reduction_ = std::make_unique<Reduction>(std::move(reduction));
    }
  }
  tableau_ = std::make_unique<Tableau>(effective(), options);
}

LiveTableau::~LiveTableau() = default;

const Problem& LiveTableau::effective() const {
  return reduction_ != nullptr ? reduction_->reduced() : *rows_;
}

template <typename Phase>
Solution LiveTableau::runLive(Phase phase) {
  const int pivotsBefore = tableau_->totalPivots();
  const int devexBefore = tableau_->devexPivots();
  Solution solution;
  try {
    solution = phase();
  } catch (const InjectedFaultError&) {
    // Retired below, like a phase that ran out of budget.
    solution = Solution{};
    solution.status = SolveStatus::IterationLimit;
  }
  solution.pivots = tableau_->totalPivots() - pivotsBefore;
  solution.devexPivots = tableau_->devexPivots() - devexBefore;
  if (solution.status == SolveStatus::IterationLimit) tableau_.reset();
  return solution;
}

Solution LiveTableau::runPhaseOne() {
  const Solution solution = runLive([&] {
    Solution phase;
    phase.status = tableau_->phaseOne();
    if (phase.status == SolveStatus::Optimal &&
        !tableau_->primalFeasibleAtTol()) {
      phase.status = SolveStatus::IterationLimit;
    }
    return phase;
  });
  if (solution.status != SolveStatus::IterationLimit) {
    feasibilityKnown_ = true;
    infeasible_ = solution.status == SolveStatus::Infeasible;
  }
  return solution;
}

Solution LiveTableau::feasibility() {
  const SinkReport sink;
  Solution solution;
  if (feasibilityKnown_) {
    solution.status =
        infeasible_ ? SolveStatus::Infeasible : SolveStatus::Optimal;
  } else {
    const DenseObjective zero{
        std::vector<double>(static_cast<std::size_t>(effective().numVars()),
                            0.0),
        0.0};
    if (tableau_ == nullptr) {
      solution = solveCold(effective(), zero, options_);
    } else {
      solution = runPhaseOne();
      if (tableau_ == nullptr) {
        solution = retryFromScratch(effective(), zero, options_,
                                    std::move(solution));
      }
    }
  }
  // Only the verdict is an answer here; no caller needs the point.
  solution.values.clear();
  solution.presolve = presolve_;
  sink.report(solution);
  return solution;
}

Solution LiveTableau::solve(const Problem& problem) {
  const SinkReport sink;
  Solution solution;
  if (feasibilityKnown_ && infeasible_) {
    solution.status = SolveStatus::Infeasible;
  } else {
    const DenseObjective objective =
        effectiveObjective(problem, reduction_.get());
    if (tableau_ == nullptr) {
      // Retired by an earlier call: a plain cold solve.
      solution = solveCold(effective(), objective, options_);
    } else {
      if (!feasibilityKnown_) solution = runPhaseOne();
      if (tableau_ != nullptr && infeasible_) {
        solution.status = SolveStatus::Infeasible;
      } else if (tableau_ != nullptr) {
        const int phaseOnePivots = solution.pivots;
        const int phaseOneDevex = solution.devexPivots;
        tableau_->resetPivotBudget();
        solution = runLive([&] {
          return tableau_->phaseTwo(objective.coeffs, objective.constant);
        });
        solution.pivots += phaseOnePivots;
        solution.devexPivots += phaseOneDevex;
      }
      if (tableau_ == nullptr) {
        // This call's live phase failed: climb the from-scratch ladder.
        solution = retryFromScratch(effective(), objective, options_,
                                    std::move(solution));
      }
    }
  }
  postsolve(problem, reduction_.get(), presolve_, &solution);
  sink.report(solution);
  return solution;
}

}  // namespace cinderella::lp
