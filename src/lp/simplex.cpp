#include "cinderella/lp/simplex.hpp"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cinderella/lp/presolve.hpp"
#include "cinderella/lp/tableau.hpp"
#include "cinderella/support/error.hpp"

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
  for (const PivotRule retryRule : {PivotRule::Dantzig, PivotRule::Bland}) {
    if (retryRule == options.pivotRule) continue;
    const int wastedPivots = solution.pivots;
    const int wastedDevex = solution.devexPivots;
    Tableau tableau(effective, retryRule);
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
  Tableau tableau(effective, options.pivotRule);
  Solution solution = tableau.run(objective.coeffs, objective.constant);
  if (solution.status != SolveStatus::IterationLimit) return solution;
  return retryFromScratch(effective, objective, options, std::move(solution));
}

/// Runs `phase` on `tableau` and returns its solution with the pivots it
/// spent.  A phase that ends in IterationLimit or throws
/// InjectedFaultError (reported as IterationLimit) retires the tableau.
template <typename TableauPtr, typename Phase>
Solution runLive(TableauPtr& tableau, Phase phase) {
  const int pivotsBefore = tableau->totalPivots();
  const int devexBefore = tableau->devexPivots();
  Solution solution;
  try {
    solution = phase();
  } catch (const InjectedFaultError&) {
    // Retired below, like a phase that ran out of budget.
    solution = Solution{};
    solution.status = SolveStatus::IterationLimit;
  }
  solution.pivots = tableau->totalPivots() - pivotsBefore;
  solution.devexPivots = tableau->devexPivots() - devexBefore;
  if (solution.status == SolveStatus::IterationLimit) tableau.reset();
  return solution;
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

}  // namespace

Solution solve(const Problem& problem, const SimplexOptions& options) {
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
      return solution;
    }
    if (!reduction->effective()) reduction.reset();
  }
  const Reduction* const effective = reduction ? &*reduction : nullptr;
  Solution solution =
      solveCold(effective != nullptr ? effective->reduced() : problem,
                effectiveObjective(problem, effective), options);
  postsolve(problem, effective, presolve, &solution);
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
  tableau_ = std::make_unique<Tableau>(effective(), options.pivotRule);
}

LiveTableau::~LiveTableau() = default;

const Problem& LiveTableau::effective() const {
  return reduction_ != nullptr ? reduction_->reduced() : *rows_;
}

Solution LiveTableau::runFeasibility() {
  const Solution solution = runLive(tableau_, [&] {
    Solution phase;
    phase.status = tableau_->feasibility();
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
  Solution solution;
  atOptimum_ = false;
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
      solution = runFeasibility();
      if (tableau_ == nullptr) {
        solution = retryFromScratch(effective(), zero, options_,
                                    std::move(solution));
      }
    }
  }
  // Only the verdict is an answer here; no caller needs the point.
  solution.values.clear();
  solution.presolve = presolve_;
  return solution;
}

Solution LiveTableau::solve(const Problem& problem) {
  Solution solution;
  atOptimum_ = false;
  if (feasibilityKnown_ && infeasible_) {
    solution.status = SolveStatus::Infeasible;
  } else {
    const DenseObjective objective =
        effectiveObjective(problem, reduction_.get());
    if (tableau_ == nullptr) {
      // Retired by an earlier call: a plain cold solve.
      solution = solveCold(effective(), objective, options_);
    } else {
      if (!feasibilityKnown_) solution = runFeasibility();
      if (tableau_ != nullptr && infeasible_) {
        solution.status = SolveStatus::Infeasible;
      } else if (tableau_ != nullptr) {
        const int probePivots = solution.pivots;
        const int probeDevex = solution.devexPivots;
        tableau_->resetPivotBudget();
        solution = runLive(tableau_, [&] {
          return tableau_->maximize(objective.coeffs, objective.constant);
        });
        solution.pivots += probePivots;
        solution.devexPivots += probeDevex;
        atOptimum_ = solution.status == SolveStatus::Optimal;
      }
      if (tableau_ == nullptr) {
        // This call's live phase failed: climb the from-scratch ladder.
        solution = retryFromScratch(effective(), objective, options_,
                                    std::move(solution));
      }
    }
  }
  postsolve(problem, reduction_.get(), presolve_, &solution);
  return solution;
}

BranchPoint::BranchPoint(const LiveTableau& live, const Problem& problem)
    : live_(&live), problem_(&problem),
      tableau_(live.atOptimum_ && live.tableau_ != nullptr
                   ? std::make_shared<Tableau>(*live.tableau_)
                   : nullptr),
      constant_(effectiveObjective(problem, live.reduction_.get()).constant) {
}

Solution BranchPoint::cut(int var, Relation rel, double bound) {
  CIN_REQUIRE(rel != Relation::Equal);
  cuts_.push_back(Constraint{LinearExpr{}, rel, bound});
  cuts_.back().expr.add(var, 1.0);
  const auto solveCold = [&] {
    Problem work = *problem_;
    for (const Constraint& c : cuts_) work.addConstraint(c);
    return lp::solve(work, live_->options_);
  };
  if (tableau_ == nullptr) {
    last_ = Answer::Cold;
    return solveCold();
  }
  // Copy on write: another copy still needs the tableau as it is.
  if (tableau_.use_count() > 1) tableau_ = std::make_shared<Tableau>(*tableau_);

  const Reduction* const reduction = live_->reduction_.get();
  // x_v <= b is terms <= b - c over the reduced space; x_v >= b is
  // -terms <= c - b.
  const LinearExpr& cutExpr = cuts_.back().expr;
  const LinearExpr expr =
      reduction != nullptr ? reduction->reducedObjective(cutExpr) : cutExpr;
  const double sign = rel == Relation::LessEq ? 1.0 : -1.0;
  std::vector<Term> terms = expr.terms();
  for (Term& t : terms) t.coeff *= sign;
  Solution dive = runLive(tableau_, [&] {
    tableau_->appendLessEqRow(terms, sign * (bound - expr.constant()));
    tableau_->resetPivotBudget();
    Solution s = tableau_->reoptimize(constant_);
    // A cut cannot unbound a bounded parent: this is numeric trouble.
    if (s.status == SolveStatus::Unbounded) {
      s.status = SolveStatus::IterationLimit;
    }
    return s;
  });
  if (dive.status == SolveStatus::Optimal) {
    last_ = Answer::Dive;
    postsolve(*problem_, reduction, PresolveStats{}, &dive);
    return dive;
  }
  last_ = dive.status == SolveStatus::Infeasible ? Answer::Confirmed
                                                 : Answer::Fallback;
  tableau_.reset();  // not at this node's optimum: the subtree goes cold
  Solution solution = solveCold();
  solution.pivots += dive.pivots;
  solution.devexPivots += dive.devexPivots;
  return solution;
}

}  // namespace cinderella::lp
