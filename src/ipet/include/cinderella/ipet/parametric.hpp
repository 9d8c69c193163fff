// The parametric-LP multi-solve engine (ISSUE 8 tentpole).
//
// Given an Analyzer whose constraints mention `@name` parameters and a
// declared integer box for those parameters, solveParametric() returns a
// WcetFormula — a disjoint piecewise-affine partition of the box — whose
// evaluation at ANY integer point inside the box is bit-identical to
// binding the parameters and running the direct non-parametric solve.
//
// Algorithm (basis-sensitivity region splitting over the RHS polytope):
// for a fixed optimal simplex basis, the LP value is an affine function
// of the constraint right-hand sides, so the WCET as a function of
// RHS-parametric constraint bounds is piecewise affine with convex
// validity regions.  The engine exploits this shape without trusting
// floating-point dual sensitivities: it solves the box's corner plus one
// axis-adjacent corner per parameter exactly, fits the unique
// candidate affine form with exact integer coefficients from those
// values, then *verifies* the fit: on small boxes at every integer point
// (the default for tests, fuzzing and CI, making bit-identity a checked
// property, not an assumption), on large boxes at all vertices, the
// center and per-axis probe points.  Any mismatch — which happens
// exactly when the optimal basis changes inside the box — splits the
// longest axis at its midpoint and recurses; singleton boxes always
// succeed as constant pieces, so termination is guaranteed.  Every
// direct solve must be Exact (no degraded rungs); otherwise the engine
// throws rather than emit an unverifiable formula.
#pragma once

#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/formula.hpp"

namespace cinderella::ipet {

struct ParametricOptions {
  /// Boxes with at most this many integer points are verified
  /// exhaustively (every point solved and compared against the fitted
  /// affine forms).  Larger boxes use vertex/center/probe verification.
  std::int64_t exhaustiveThreshold = 256;
  /// Guard against pathological non-affine landscapes: more pieces than
  /// this throws AnalysisError.
  int maxPieces = 512;
  /// Guard on total direct solves (memoized points count once).
  int maxDirectSolves = 20000;
};

struct ParametricStats {
  /// Direct (concrete-point) solves performed, after memoization.
  int directSolves = 0;
  /// Boxes split because an affine fit failed verification.
  int splits = 0;
  /// Pieces in the returned formula.
  int pieces = 0;
  /// Total wall µs spent in direct solves (not deterministic).
  std::int64_t solveWallMicros = 0;
};

struct ParametricResult {
  WcetFormula formula;
  ParametricStats stats;
};

/// Runs the parametric analysis.  `analyzer` must carry constraints
/// whose parameters are exactly covered by `params` (1 to 6 of them,
/// each with lo <= hi); pre-existing bindings are cleared.  `control` is
/// applied to every direct solve (threads, deadline, tracer).  Throws AnalysisError on
/// invalid declarations, unbound parameters, any non-Exact direct solve,
/// or guard exhaustion.
[[nodiscard]] ParametricResult solveParametric(
    Analyzer& analyzer, const std::vector<ParamDecl>& params,
    const SolveControl& control = {}, const ParametricOptions& options = {});

}  // namespace cinderella::ipet
