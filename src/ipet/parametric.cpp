#include "cinderella/ipet/parametric.hpp"

#include <algorithm>
#include <cctype>
#include <map>

#include "cinderella/support/error.hpp"

namespace cinderella::ipet {

namespace {

using Point = std::vector<std::int64_t>;

bool validParamName(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

/// Inclusive integer point count of a box, saturated at `cap + 1`.
std::int64_t gridCount(const Point& lo, const Point& hi, std::int64_t cap) {
  std::int64_t count = 1;
  for (std::size_t i = 0; i < lo.size(); ++i) {
    const std::int64_t width = hi[i] - lo[i] + 1;
    if (count > (cap + 1) / width + 1) return cap + 1;
    count *= width;
    if (count > cap) return cap + 1;
  }
  return count;
}

class Engine {
 public:
  Engine(Analyzer& analyzer, const std::vector<ParamDecl>& params,
         const SolveControl& control, const ParametricOptions& options)
      : analyzer_(analyzer),
        params_(params),
        control_(control),
        options_(options) {}

  ParametricResult run() {
    // Every exit, a throw included, leaves the analyzer unbound.
    struct Unbind {
      Analyzer& analyzer;
      ~Unbind() { analyzer.clearParamBindings(); }
    } unbind{analyzer_};
    validate();
    Point lo(params_.size()), hi(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) {
      lo[i] = params_[i].lo;
      hi[i] = params_[i].hi;
    }
    out_.formula.params = params_;
    cover(lo, hi, &out_.formula);
    out_.stats.pieces = static_cast<int>(out_.formula.pieces.size());
    return std::move(out_);
  }

 private:
  void validate() const {
    if (params_.empty() || params_.size() > 6) {
      throw AnalysisError("parametric analysis takes 1 to 6 parameters, got " +
                          std::to_string(params_.size()));
    }
    std::vector<std::string> names;
    for (const auto& p : params_) {
      if (!validParamName(p.name)) {
        throw AnalysisError("invalid parameter name '" + p.name + "'");
      }
      if (p.lo > p.hi) {
        throw AnalysisError("parameter '@" + p.name + "' has an empty range [" +
                            std::to_string(p.lo) + ", " + std::to_string(p.hi) +
                            "]");
      }
      names.push_back(p.name);
    }
    std::sort(names.begin(), names.end());
    if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
      throw AnalysisError("duplicate parameter declaration");
    }
    for (const auto& used : analyzer_.referencedParams()) {
      if (std::find(names.begin(), names.end(), used) == names.end()) {
        throw AnalysisError("constraint references undeclared parameter '@" +
                            used + "'");
      }
    }
  }

  /// Direct solve at one integer point (memoized).  Every solve must be
  /// fully Exact — a formula fitted through degraded bounds could not
  /// promise bit-identity with a later direct solve.
  Interval solveAt(const Point& point) {
    const auto cached = memo_.find(point);
    if (cached != memo_.end()) return cached->second;
    if (out_.stats.directSolves >= options_.maxDirectSolves) {
      throw AnalysisError("parametric analysis exceeded its direct-solve "
                          "budget — narrow the parameter ranges");
    }
    for (std::size_t i = 0; i < params_.size(); ++i) {
      analyzer_.bindParam(params_[i].name, point[i]);
    }
    const Estimate estimate = analyzer_.estimate(control_);
    ++out_.stats.directSolves;
    std::int64_t wall = 0;
    for (const auto& record : estimate.setRecords) wall += record.wallMicros;
    out_.stats.solveWallMicros += wall;
    if (!estimate.sound() || estimate.timedOut || !estimate.issues.empty() ||
        estimate.stats.relaxedSets > 0 || estimate.stats.structuralSets > 0) {
      throw AnalysisError(
          "parametric analysis needs exact solves; the direct solve at a "
          "sample point degraded (raise the deadline or node budget)");
    }
    out_.solveStats.constraintSets += estimate.stats.constraintSets;
    out_.solveStats.cacheFlowVars = estimate.stats.cacheFlowVars;
    out_.solveStats.cacheFallbackSets += estimate.stats.cacheFallbackSets;
    for (const SetSolveRecord& record : estimate.setRecords) {
      out_.solveStats.addSet(record);
      out_.setRecords.push_back(record);
    }
    memo_.emplace(point, estimate.bound);
    return estimate.bound;
  }

  /// Fits the unique affine candidate through the box corner and its
  /// axis-adjacent corners.  Returns false when a slope is not an exact
  /// integer (the bound cannot be a single affine piece on this box).
  bool fitAffine(const Point& lo, const Point& hi, std::int64_t Interval::*end,
                 AffineForm* out) {
    const auto value = [&](const Point& p) { return solveAt(p).*end; };
    const std::int64_t base = value(lo);
    out->coeff.assign(params_.size(), Rat());
    std::int64_t constant = base;
    for (std::size_t i = 0; i < params_.size(); ++i) {
      const std::int64_t width = hi[i] - lo[i];
      if (width == 0) continue;
      Point corner = lo;
      corner[i] = hi[i];
      const std::int64_t delta = value(corner) - base;
      if (delta % width != 0) return false;
      const std::int64_t slope = delta / width;
      out->coeff[i] = Rat::ofInt(slope);
      constant -= slope * lo[i];
    }
    out->constant = Rat::ofInt(constant);
    return true;
  }

  bool matches(const FormulaPiece& piece, const Point& p) {
    const Interval direct = solveAt(p);
    return piece.worst.evaluate(p) == direct.hi &&
           piece.best.evaluate(p) == direct.lo;
  }

  /// Exhaustive check of a fitted piece over every integer point.
  bool verifyExhaustive(const FormulaPiece& piece, const Point& lo,
                        const Point& hi) {
    Point p = lo;
    while (true) {
      if (!matches(piece, p)) return false;
      std::size_t axis = 0;
      while (axis < p.size() && p[axis] == hi[axis]) {
        p[axis] = lo[axis];
        ++axis;
      }
      if (axis == p.size()) return true;
      ++p[axis];
    }
  }

  /// Sparse check for large boxes: all 2^k vertices, the center, and
  /// per-axis mid/quarter probes from the corner.
  bool verifySparse(const FormulaPiece& piece, const Point& lo,
                    const Point& hi) {
    const std::size_t k = params_.size();
    Point p(k);
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << k); ++mask) {
      for (std::size_t i = 0; i < k; ++i) {
        p[i] = (mask >> i) & 1 ? hi[i] : lo[i];
      }
      if (!matches(piece, p)) return false;
    }
    for (std::size_t i = 0; i < k; ++i) p[i] = lo[i] + (hi[i] - lo[i]) / 2;
    if (!matches(piece, p)) return false;
    for (std::size_t i = 0; i < k; ++i) {
      const std::int64_t width = hi[i] - lo[i];
      if (width < 2) continue;
      for (const std::int64_t offset : {width / 2, width / 4, (3 * width) / 4}) {
        if (offset == 0 || offset == width) continue;
        p = lo;
        p[i] = lo[i] + offset;
        if (!matches(piece, p)) return false;
      }
    }
    return true;
  }

  void cover(const Point& lo, const Point& hi, WcetFormula* formula) {
    if (static_cast<int>(formula->pieces.size()) >= options_.maxPieces) {
      throw AnalysisError("parametric analysis exceeded its piece budget — "
                          "the bound is not piecewise affine at this scale");
    }
    const std::int64_t points =
        gridCount(lo, hi, options_.exhaustiveThreshold);
    FormulaPiece piece;
    piece.region.lo = lo;
    piece.region.hi = hi;
    if (points == 1) {
      // A singleton is always an exact constant piece.
      const Interval bound = solveAt(lo);
      piece.worst.constant = Rat::ofInt(bound.hi);
      piece.worst.coeff.assign(params_.size(), Rat());
      piece.best.constant = Rat::ofInt(bound.lo);
      piece.best.coeff.assign(params_.size(), Rat());
      formula->pieces.push_back(std::move(piece));
      return;
    }
    const bool exhaustive = points <= options_.exhaustiveThreshold;
    if (fitAffine(lo, hi, &Interval::hi, &piece.worst) &&
        fitAffine(lo, hi, &Interval::lo, &piece.best) &&
        (exhaustive ? verifyExhaustive(piece, lo, hi)
                    : verifySparse(piece, lo, hi))) {
      formula->pieces.push_back(std::move(piece));
      return;
    }
    // The optimal basis changes inside this box: split its longest axis
    // at the midpoint and recurse.  Widths shrink strictly, so this
    // bottoms out at singleton boxes.
    ++out_.stats.splits;
    std::size_t axis = 0;
    std::int64_t widest = -1;
    for (std::size_t i = 0; i < lo.size(); ++i) {
      if (hi[i] - lo[i] > widest) {
        widest = hi[i] - lo[i];
        axis = i;
      }
    }
    CIN_REQUIRE(widest >= 1);
    const std::int64_t mid = lo[axis] + (hi[axis] - lo[axis]) / 2;
    Point leftHi = hi;
    leftHi[axis] = mid;
    Point rightLo = lo;
    rightLo[axis] = mid + 1;
    cover(lo, leftHi, formula);
    cover(rightLo, hi, formula);
  }

  Analyzer& analyzer_;
  const std::vector<ParamDecl>& params_;
  const SolveControl& control_;
  const ParametricOptions& options_;
  std::map<Point, Interval> memo_;
  /// The result under construction: the formula, the sweep's counters
  /// and every direct solve's set records.
  ParametricResult out_;
};

}  // namespace

ParametricResult solveParametric(Analyzer& analyzer,
                                 const std::vector<ParamDecl>& params,
                                 const SolveControl& control,
                                 const ParametricOptions& options) {
  return Engine(analyzer, params, control, options).run();
}

}  // namespace cinderella::ipet
