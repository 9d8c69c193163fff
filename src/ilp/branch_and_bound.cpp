#include "cinderella/ilp/branch_and_bound.hpp"

#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "cinderella/support/checked_math.hpp"
#include "cinderella/support/error.hpp"

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

IlpStats& IlpStats::operator+=(const IlpStats& other) {
  nodesExpanded += other.nodesExpanded;
  lpCalls += other.lpCalls;
  coldNodes += other.coldNodes;
  diveFallbacks += other.diveFallbacks;
  infeasibleConfirmations += other.infeasibleConfirmations;
  allFirstRelaxationsIntegral &= other.allFirstRelaxationsIntegral;
  totalPivots += other.totalPivots;
  checkedPromotions += other.checkedPromotions;
  blandRestarts += other.blandRestarts;
  devexPivots += other.devexPivots;
  presolveRowsRemoved += other.presolveRowsRemoved;
  presolveColsFixed += other.presolveColsFixed;
  presolveSubstitutions += other.presolveSubstitutions;
  presolveRounds += other.presolveRounds;
  return *this;
}

void IlpStats::addNode(const lp::Solution& relax) {
  ++nodesExpanded;
  ++lpCalls;
  totalPivots += relax.pivots;
  devexPivots += relax.devexPivots;
  presolveRowsRemoved += relax.presolve.rowsRemoved;
  presolveColsFixed += relax.presolve.colsFixed;
  presolveSubstitutions += relax.presolve.substitutions;
  presolveRounds += relax.presolve.propagationRounds;
  blandRestarts += relax.blandRestart ? 1 : 0;
}

namespace {

/// |x - round(x)| below this counts as integral: coarser than the
/// simplex's feasibility tolerance (lp::kFeasibilityTol), so a vertex
/// the simplex leaves within its tolerance of an integer counts as one.
constexpr double kIntTol = 1e-6;

/// A node of the search tree: the cut that separates it from its
/// parent, to apply on the parent's branch point.  The root has no cut,
/// and takes its branch point from the live tableau if it branches.
struct Node {
  std::optional<lp::BranchPoint> branch;
  int var = -1;
  lp::Relation rel = lp::Relation::LessEq;
  double bound = 0.0;
  /// LP bound inherited from the parent (for pruning).
  double parentBound = 0.0;
};

/// Index of the lowest-numbered variable that is not integral within
/// kIntTol, or nullopt when the point is integral.
std::optional<int> firstFractional(const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double frac = values[i] - std::floor(values[i]);
    if (std::min(frac, 1.0 - frac) > kIntTol) return static_cast<int>(i);
  }
  return std::nullopt;
}

/// True when `x` is an integer within kIntTol; *out receives the
/// rounding.
bool asInteger(double x, std::int64_t* out) {
  const double r = std::round(x);
  if (std::abs(x - r) > kIntTol) return false;
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
void recomputeExactObjective(const lp::Problem& problem, IlpSolution* result) {
  const auto& terms = problem.objective().terms();
  std::vector<std::int64_t> coeffs(terms.size());
  std::vector<std::int64_t> values(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!asInteger(terms[i].coeff, &coeffs[i])) return;
    const auto var = static_cast<std::size_t>(terms[i].var);
    if (!asInteger(result->values[var], &values[i])) return;
  }
  std::int64_t constant = 0;
  if (!asInteger(problem.objective().constant(), &constant)) return;

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
  IlpSolution result;
  const bool maximize = (problem.sense() == lp::Sense::Maximize);
  const double worst = maximize ? -std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::infinity();
  double incumbentObjective = worst;
  std::vector<double> incumbentValues;
  bool haveIncumbent = false;
  bool hitLimit = false;
  bool interrupted = false;

  auto better = [&](double a, double b) { return maximize ? a > b : a < b; };

  std::optional<lp::LiveTableau> ownLive;
  if (options.live == nullptr) ownLive.emplace(problem, options.lpOptions);
  lp::LiveTableau& live =
      options.live != nullptr ? *options.live : *ownLive;

  std::vector<Node> stack(1);
  stack.back().parentBound = -worst;

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

    lp::Solution relax;
    if (rootNode) {
      relax = live.solve(problem);
    } else {
      relax = node.branch->cut(node.var, node.rel, node.bound);
      using Answer = lp::BranchPoint::Answer;
      const Answer answer = node.branch->lastAnswer();
      const bool fallback = answer == Answer::Fallback;
      const bool confirmed = answer == Answer::Confirmed;
      result.stats.coldNodes += answer != Answer::Dive ? 1 : 0;
      result.stats.diveFallbacks += fallback ? 1 : 0;
      result.stats.infeasibleConfirmations += confirmed ? 1 : 0;
      result.stats.lpCalls += fallback || confirmed ? 1 : 0;  // the dive
    }
    result.stats.addNode(relax);
    if (rootNode && relax.status == lp::SolveStatus::Optimal) {
      // The root relaxation bounds the ILP optimum from the relaxed
      // side; the analyzer's degradation ladder falls back to it when
      // the integer search cannot finish.
      result.relaxationBound = relax.objective;
      result.haveRelaxationBound = true;
    }

    if (relax.status == lp::SolveStatus::IterationLimit) {
      hitLimit = true;
      break;
    }
    if (relax.status == lp::SolveStatus::Unbounded) {
      // An unbounded relaxation at the root means the ILP itself is
      // unbounded (the feasible integral points are a subset, but the
      // recession direction is rational, so integral points also recede).
      // In a child the direction survives too: still unbounded.
      result.status = IlpStatus::Unbounded;
      return result;
    }
    if (relax.status == lp::SolveStatus::Infeasible) {
      rootNode = false;
      continue;
    }

    const auto fractional = firstFractional(relax.values);
    if (rootNode) {
      result.stats.allFirstRelaxationsIntegral = !fractional.has_value();
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

    // The up child is explored first and continues on this node's
    // branch point; the down child keeps a copy of it.  The root's is
    // taken only now, so an integral root copies nothing.
    if (!node.branch) node.branch.emplace(live.branch(problem));
    const int var = *fractional;
    const double value = relax.values[static_cast<std::size_t>(var)];
    stack.push_back(Node{*node.branch, var, lp::Relation::LessEq,
                         std::floor(value), relax.objective});
    stack.push_back(Node{std::move(node.branch), var, lp::Relation::GreaterEq,
                         std::ceil(value), relax.objective});
  }

  if (haveIncumbent) {
    result.status = interrupted  ? IlpStatus::Interrupted
                    : hitLimit   ? IlpStatus::Limit
                                 : IlpStatus::Optimal;
    result.objective = incumbentObjective;
    result.values = std::move(incumbentValues);
    recomputeExactObjective(problem, &result);
  } else {
    result.status = interrupted  ? IlpStatus::Interrupted
                    : hitLimit   ? IlpStatus::Limit
                                 : IlpStatus::Infeasible;
  }
  return result;
}

}  // namespace cinderella::ilp
