#include "cinderella/ilp/branch_and_bound.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "cinderella/support/checked_math.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/metrics_sink.hpp"

namespace cinderella::ilp {

const char* ilpStatusStr(IlpStatus status) {
  switch (status) {
    case IlpStatus::Optimal:
      return "optimal";
    case IlpStatus::Infeasible:
      return "infeasible";
    case IlpStatus::Unbounded:
      return "unbounded";
    case IlpStatus::Limit:
      return "limit";
    case IlpStatus::Interrupted:
      return "interrupted";
  }
  return "?";
}

namespace {

/// A node of the search tree: extra bound constraints of the form
/// x[var] <= bound or x[var] >= bound layered onto the base problem.
struct BoundCut {
  int var = 0;
  lp::Relation rel = lp::Relation::LessEq;
  double bound = 0.0;
};

struct Node {
  std::vector<BoundCut> cuts;
  /// LP bound inherited from the parent (for best-first pruning).
  double parentBound = 0.0;
  /// Final basis of the parent's relaxation.  The child's rows extend
  /// the parent's rows by one cut, so the basis installs directly and a
  /// few dual pivots repair the violated cut (empty = solve cold).
  lp::Basis parentBasis;
};

/// Index of the variable whose value is farthest from an integer, or
/// nullopt when the point is integral within `tol`.
std::optional<int> mostFractional(const std::vector<double>& values,
                                  double tol) {
  int best = -1;
  double bestDist = tol;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double frac = values[i] - std::floor(values[i]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > bestDist) {
      bestDist = dist;
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return std::nullopt;
  return best;
}

/// Rewrites `work` (a copy of the base problem) to carry exactly `cuts`
/// on top of the base rows, reusing the allocation across nodes.
void applyCuts(lp::Problem* work, std::size_t baseRows,
               const std::vector<BoundCut>& cuts) {
  work->truncateConstraints(baseRows);
  for (const auto& cut : cuts) {
    lp::LinearExpr e;
    e.add(cut.var, 1.0);
    work->addConstraint(std::move(e), cut.rel, cut.bound);
  }
}

/// True when `x` is an integer within `tol`; *out receives the rounding.
bool asInteger(double x, double tol, std::int64_t* out) {
  const double r = std::round(x);
  if (std::abs(x - r) > tol) return false;
  // Beyond 2^63 a double cannot be narrowed; treat as non-integral so the
  // caller keeps the (already inexact) double objective instead.
  if (r < -9.2e18 || r > 9.2e18) return false;
  *out = static_cast<std::int64_t>(r);
  return true;
}

/// Recomputes the incumbent objective exactly from integral coefficients
/// and the rounded incumbent point.  The LP path accumulates the
/// objective in doubles, which silently loses precision past 2^53; IPET
/// objectives (cycle costs x execution counts) are exact integers, so
/// this checked integer pass restores them.  Fills objectiveExact /
/// objectiveIsExact / objectiveSaturated and counts __int128 promotions.
void recomputeExactObjective(const lp::Problem& problem,
                             const IlpOptions& options, IlpSolution* result) {
  const auto& terms = problem.objective().terms();
  std::vector<std::int64_t> coeffs(terms.size());
  std::vector<std::int64_t> values(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!asInteger(terms[i].coeff, options.intTol, &coeffs[i])) return;
    const auto var = static_cast<std::size_t>(terms[i].var);
    if (!asInteger(result->values[var], options.intTol, &values[i])) return;
  }
  std::int64_t constant = 0;
  if (!asInteger(problem.objective().constant(), options.intTol, &constant)) {
    return;
  }

  support::CheckedSum sum = support::accumulateProducts(
      terms.size(), [&](std::size_t i) { return coeffs[i]; },
      [&](std::size_t i) { return values[i]; });
  if (sum.promoted) ++result->stats.checkedPromotions;
  if (!sum.saturated) {
    std::int64_t withConstant = 0;
    if (support::addOverflow(sum.value, constant, &withConstant)) {
      ++result->stats.checkedPromotions;
      const __int128 wide =
          static_cast<__int128>(sum.value) + static_cast<__int128>(constant);
      const bool high = wide > std::numeric_limits<std::int64_t>::max();
      sum.value = high ? std::numeric_limits<std::int64_t>::max()
                       : std::numeric_limits<std::int64_t>::min();
      sum.saturated = true;
    } else {
      sum.value = withConstant;
    }
  }
  result->objectiveExact = sum.value;
  result->objectiveIsExact = true;
  result->objectiveSaturated = sum.saturated;
  if (!sum.saturated) result->objective = static_cast<double>(sum.value);
}

}  // namespace

IlpSolution solve(const lp::Problem& problem, const IlpOptions& options) {
  // Observability is off on the default path: one relaxed atomic load.
  support::MetricsSink* const sink = support::metricsSink();
  const auto solveStart = sink != nullptr
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};

  IlpSolution result;

  // Reports solver metrics on every exit path.
  struct MetricsReport {
    support::MetricsSink* sink;
    std::chrono::steady_clock::time_point start;
    const IlpSolution& result;
    ~MetricsReport() {
      if (sink == nullptr) return;
      sink->add("ilp.solves", 1);
      sink->observe("ilp.nodes", result.stats.nodesExpanded);
      sink->observe("ilp.pivots", result.stats.totalPivots);
      sink->observe("ilp.micros",
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    }
  } metricsReport{sink, solveStart, result};
  const bool maximize = (problem.sense() == lp::Sense::Maximize);
  const double worst = maximize ? -std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::infinity();
  double incumbentObjective = worst;
  std::vector<double> incumbentValues;
  bool haveIncumbent = false;
  bool hitLimit = false;
  bool interrupted = false;

  auto better = [&](double a, double b) { return maximize ? a > b : a < b; };

  std::vector<Node> stack;
  stack.push_back(
      Node{{},
           maximize ? std::numeric_limits<double>::infinity()
                    : -std::numeric_limits<double>::infinity(),
           (options.warmStart && options.rootBasis != nullptr)
               ? *options.rootBasis
               : lp::Basis{}});

  lp::Problem work = problem;
  const std::size_t baseRows = problem.constraints().size();
  bool rootNode = true;
  while (!stack.empty()) {
    if (result.stats.nodesExpanded >= options.maxNodes) {
      hitLimit = true;
      break;
    }
    if (options.interrupt && options.interrupt()) {
      interrupted = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();

    // Bound: the parent's relaxation bound caps every descendant.
    if (haveIncumbent && !better(node.parentBound, incumbentObjective)) {
      continue;
    }

    applyCuts(&work, baseRows, node.cuts);
    const lp::Basis* const warmBasis =
        (options.warmStart && !node.parentBasis.empty()) ? &node.parentBasis
                                                         : nullptr;
    lp::Basis finalBasis;
    const lp::Solution relax =
        lp::solveWarm(work, options.lpOptions, warmBasis, &finalBasis,
                      rootNode ? options.rootReduction : nullptr);
    ++result.stats.nodesExpanded;
    ++result.stats.lpCalls;
    result.stats.totalPivots += relax.pivots;
    result.stats.dualPivots += relax.dualPivots;
    result.stats.installPivots += relax.installPivots;
    result.stats.devexPivots += relax.devexPivots;
    result.stats.presolveRowsRemoved += relax.presolve.rowsRemoved;
    result.stats.presolveColsFixed += relax.presolve.colsFixed;
    result.stats.presolveSubstitutions += relax.presolve.substitutions;
    result.stats.presolveRounds += relax.presolve.propagationRounds;
    if (relax.blandRestart) ++result.stats.blandRestarts;
    if (relax.warmUsed) {
      ++result.stats.warmStarts;
    } else {
      ++result.stats.coldStarts;
    }
    if (relax.warmFailed) ++result.stats.warmFailures;
    if (rootNode && relax.status == lp::SolveStatus::Optimal) {
      // The root relaxation bounds the ILP optimum from the relaxed
      // side; the analyzer's degradation ladder falls back to it when
      // the integer search cannot finish.
      result.relaxationBound = relax.objective;
      result.haveRelaxationBound = true;
      result.rootBasis = finalBasis;
      result.haveRootBasis = true;
    }

    if (relax.status == lp::SolveStatus::IterationLimit) {
      hitLimit = true;
      break;
    }
    if (relax.status == lp::SolveStatus::Unbounded) {
      // An unbounded relaxation at the root means the ILP itself is
      // unbounded (the feasible integral points are a subset, but the
      // recession direction is rational, so integral points also recede).
      if (rootNode) {
        result.status = IlpStatus::Unbounded;
        return result;
      }
      // In a child the direction survives too: still unbounded.
      result.status = IlpStatus::Unbounded;
      return result;
    }
    if (relax.status == lp::SolveStatus::Infeasible) {
      rootNode = false;
      continue;
    }

    const auto fractional = mostFractional(relax.values, options.intTol);
    if (rootNode) {
      result.stats.firstRelaxationIntegral = !fractional.has_value();
      rootNode = false;
    }

    if (haveIncumbent && !better(relax.objective, incumbentObjective)) {
      continue;  // bound: relaxation no better than incumbent
    }

    if (!fractional) {
      // Integral: new incumbent.
      std::vector<double> rounded = relax.values;
      for (double& v : rounded) v = std::round(v);
      incumbentObjective = relax.objective;
      incumbentValues = std::move(rounded);
      haveIncumbent = true;
      continue;
    }

    const int var = *fractional;
    const double value = relax.values[static_cast<std::size_t>(var)];
    Node down;
    down.cuts = node.cuts;
    down.cuts.push_back({var, lp::Relation::LessEq, std::floor(value)});
    down.parentBound = relax.objective;
    Node up;
    up.cuts = std::move(node.cuts);
    up.cuts.push_back({var, lp::Relation::GreaterEq, std::ceil(value)});
    up.parentBound = relax.objective;
    if (options.warmStart) {
      down.parentBasis = finalBasis;
      up.parentBasis = std::move(finalBasis);
    }
    stack.push_back(std::move(down));
    stack.push_back(std::move(up));
  }

  if (haveIncumbent) {
    result.status = interrupted  ? IlpStatus::Interrupted
                    : hitLimit   ? IlpStatus::Limit
                                 : IlpStatus::Optimal;
    result.objective = incumbentObjective;
    result.values = std::move(incumbentValues);
    recomputeExactObjective(problem, options, &result);
  } else {
    result.status = interrupted  ? IlpStatus::Interrupted
                    : hitLimit   ? IlpStatus::Limit
                                 : IlpStatus::Infeasible;
  }
  return result;
}

}  // namespace cinderella::ilp
