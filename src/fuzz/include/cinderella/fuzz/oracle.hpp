// The differential oracle: every cross-check the repo knows how to make
// between the IPET analyzer and an independent ground truth, bundled
// behind one call.
//
// Two oracle classes are deliberately kept distinct (they fail for
// different reasons and tolerate different program classes):
//
//   * Exact agreement — on programs whose only path information is
//     structural + loop bounds (or whose extra constraints are redundant
//     by construction, see generator.hpp), a *complete* explicit
//     enumeration must match the IPET interval exactly: both are tight
//     over the same path set.  A mismatch localises a bug to either the
//     ILP formulation or the enumerator.
//
//   * Bracketing (soundness) — for every concrete input, the simulated
//     cycle count must lie inside the IPET interval, for every cache
//     mode.  This holds even when enumeration is capped or constraints
//     are present; a violation means the bound is unsound, the paper's
//     cardinal sin.
//
// On top of those, the oracle checks internal consistency: refined cache
// modes never loosen the worst-case bound, redundant constraints never
// move the bound, and multi-threaded solves reproduce the single-thread
// result bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cinderella/fuzz/generator.hpp"
#include "cinderella/ipet/analyzer.hpp"

namespace cinderella::fuzz {

/// Which cross-check a discrepancy came from.
enum class CheckKind {
  Frontend,        ///< generated program failed to compile (generator bug)
  Analysis,        ///< analyzer threw on a well-formed program
  ExplicitWorst,   ///< complete enumeration worst != IPET hi
  ExplicitBest,    ///< complete enumeration best != IPET lo
  SimAboveBound,   ///< simulated cycles > IPET hi (unsound!)
  SimBelowBound,   ///< simulated cycles < IPET lo (unsound!)
  SimFault,        ///< simulator faulted on a generated program
  CacheNotTighter, ///< refined cache mode loosened the worst bound
  ConstraintMoved, ///< redundant constraints changed the bound
  JobsMismatch,    ///< threaded solve differed from single-thread
  PresolveMismatch,///< presolve-on bound/verdicts differed from presolve-off
  CacheReplay,     ///< solve-cache replay missed or changed the bound
  DegradedThrow,   ///< estimate threw under fault injection
  DegradedUnsound, ///< sound-claiming degraded interval lost the clean one
  ParametricMismatch, ///< formula evaluation != direct solve at a point
};

[[nodiscard]] const char* checkKindStr(CheckKind kind);

struct Discrepancy {
  CheckKind kind = CheckKind::Analysis;
  std::string detail;
};

struct OracleOptions {
  /// Random simulator inputs tried per program per cache mode.
  int simTrials = 5;
  /// Thread counts whose estimate must equal the jobs=1 result.
  std::vector<int> extraJobs = {2};
  /// Cache modes to analyze; the first entry is the reference mode whose
  /// worst bound the others may not exceed.
  std::vector<ipet::CacheMode> cacheModes = {
      ipet::CacheMode::AllMiss, ipet::CacheMode::FirstIterationSplit,
      ipet::CacheMode::ConflictGraph};
  /// Run the explicit-enumeration exact-agreement check.
  bool compareExplicit = true;
  /// Presolve A/B: re-run every cache-mode estimate (and the
  /// constrained and fault-drill runs) with SolveControl::presolve off;
  /// the reduction engine must leave the interval and every per-set
  /// verdict bit-identical.
  bool checkPresolve = true;
  /// Serve-cache equivalence: analyse the program twice through one
  /// ipet::AnalysisService; the second submission must be a bound-cache
  /// hit carrying a bit-identical interval (what the daemon relies on).
  bool checkSolveCache = true;
  /// Parametric equivalence: attach a redundant `x0 <= @P` constraint
  /// (the root entry block runs exactly once), build the closed-form
  /// formula over P in [1, 3] with the parametric engine, and require
  /// formula evaluation to equal a direct solve with P bound, bit for
  /// bit, at every grid point and for every cache mode.
  bool checkParametric = true;
  std::uint64_t maxExplicitPaths = 2'000'000;
  std::uint64_t maxExplicitSteps = 50'000'000;
  /// Simulator step cap (generated programs are tiny; a runaway run is
  /// itself a bug worth flagging as SimFault).
  std::int64_t maxSimInstructions = 10'000'000;

  // --- Fault injection (tests and CI self-checks only). ---
  /// Added to the enumerator's worst cost before comparison; a nonzero
  /// value emulates an off-by-one in the explicit enumerator and must be
  /// caught as ExplicitWorst.
  std::int64_t injectExplicitWorstDelta = 0;
  /// Added to the IPET hi bound before every check; a negative value
  /// emulates an unsound analyzer and must be caught by the bracketing
  /// (or exact-agreement) oracle.
  std::int64_t injectBoundHiDelta = 0;

  // --- Degradation drill (support::FaultInjector). ---
  /// When > 0, re-run the reference-mode estimate with a process-wide
  /// FaultInjector firing at this rate at every site (LP pivots, pool
  /// tasks, deadline clock).  The run must not throw, and whenever it
  /// claims soundness its interval must enclose the clean one.
  double faultRate = 0.0;
  std::uint64_t faultSeed = 1;
  /// Thread count of the drill run (>1 exercises the lost-task path).
  int faultJobs = 2;
};

struct OracleReport {
  std::vector<Discrepancy> discrepancies;
  /// Reference-mode (first cacheModes entry) bound, after injection.
  ipet::Interval bound;
  bool explicitComplete = false;
  std::uint64_t pathsExplored = 0;
  int simRuns = 0;
  /// Degradation drill (faultRate > 0): issues absorbed by the faulted
  /// run and whether it still claimed a sound interval.
  int faultIssues = 0;
  bool faultRunSound = false;

  [[nodiscard]] bool ok() const { return discrepancies.empty(); }
  /// "ok" or "<kind>: <detail>" of the first discrepancy.
  [[nodiscard]] std::string summary() const;
};

class DifferentialOracle {
 public:
  explicit DifferentialOracle(OracleOptions options = {});

  /// Runs every enabled cross-check on `program`.  `inputSeed` drives
  /// the random simulator inputs; the same (program, inputSeed) pair
  /// always yields the same report.
  [[nodiscard]] OracleReport check(const GeneratedProgram& program,
                                   std::uint64_t inputSeed) const;

  /// Corpus replay: wraps a bare MiniC source as a GeneratedProgram.
  /// Constraint lines may be embedded as `//! constraint: <text>`
  /// comments (the format written by the cinderella-fuzz CLI).
  [[nodiscard]] OracleReport checkSource(std::string_view source,
                                         std::string_view root,
                                         std::uint64_t inputSeed) const;

  [[nodiscard]] const OracleOptions& options() const { return options_; }

 private:
  OracleOptions options_;
};

/// Parses `//! constraint: <text>` header lines out of a reproducer
/// file's source (inverse of the CLI's reproducer writer).
[[nodiscard]] std::vector<std::string> embeddedConstraints(
    std::string_view source);

}  // namespace cinderella::fuzz
