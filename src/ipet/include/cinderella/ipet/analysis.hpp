// The unified analysis API: one request/result pair for every consumer
// of the analyzer — the `cinderella` CLI, the `cinderella-serve` daemon,
// the fuzz oracle, and the tests all build an AnalysisRequest and read
// back an AnalysisResult, so "what can be analysed and what comes back"
// is defined exactly once.
//
// An AnalysisService wraps the per-request Analyzer pipeline with the
// persistent content-addressed SolveCache:
//
//   resolve: input -> defaulted root, merged constraints -> request key
//   lookup:  request memo -> bound or formula store: hit => answer
//   solve:   Analyzer -> systemDigests()
//            -> bound-cache lookup (full digest): hit => answer, no solve
//            -> estimate() -> admission-gated insert -> memo the key
//
// analyze() chains the three stages.  The daemon runs resolve() and
// lookup() on its connection thread and hands only a miss, already
// resolved, to a solver thread for solve().
//
// The request memo maps a digest of the request itself to the digests it
// was answered under, so a repeat whose answer is still cached compiles
// nothing and builds no system.  systemDigests() builds the analyzer's
// ILP system (base problem, objectives, combined DNF, structural digest
// prefix), and estimate() solves that same system without building it
// again.  A parametric request does the same with parametricDigest() and
// every direct solve of the parametric engine.  Without a cache (a
// disabled one, or a Bypass request) no digest but the parametric one is
// computed.
//
// The service accepts three inputs: MiniC source, the name of a built-in
// Table-I benchmark (resolved through an injected ProgramResolver so
// this library does not depend on cin_suite), and LP-format constraint
// systems — the same text Analyzer::exportWorstCaseIlp() emits, closing
// the loop the paper describes with its off-the-shelf ILP package.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/digest.hpp"
#include "cinderella/ipet/formula.hpp"
#include "cinderella/ipet/solve_cache.hpp"

namespace cinderella::obs {
class RequestTelemetry;
class Tracer;
}  // namespace cinderella::obs

namespace cinderella::ipet {

/// How one request may use the service's SolveCache.
enum class CachePolicy {
  /// Lookup and (admission-gated) insert — the default.
  ReadWrite,
  /// Lookup only: hits are served, but this request's result is never
  /// admitted (e.g. fault-injected oracle runs).
  ReadOnly,
  /// The cache is not consulted at all; always a full cold solve.
  Bypass,
};

[[nodiscard]] const char* cachePolicyStr(CachePolicy policy);
[[nodiscard]] std::optional<CachePolicy> parseCachePolicy(
    std::string_view text);

/// One functionality constraint plus its default scope for unqualified
/// x/d references (empty = the root function).
struct RequestConstraint {
  std::string text;
  std::string scope;
};

/// Everything needed to run one analysis.  Exactly one input must be
/// set: `source` (MiniC, or LP format when `lpInput`), or `benchmark`.
struct AnalysisRequest {
  /// Program label used in reports; defaults to the benchmark name,
  /// or "<source>" / "<lp>".
  std::string label;
  /// MiniC source text — or LP-format constraint systems when lpInput.
  std::string source;
  /// Name of a built-in benchmark (needs a ProgramResolver).
  std::string benchmark;
  /// `source` holds LP-format problems (Maximize => worst-case bound,
  /// Minimize => best-case), e.g. an exportWorstCaseIlp() dump.
  bool lpInput = false;
  /// Root function; empty = "main" (or the benchmark's own root).
  std::string root;
  std::vector<RequestConstraint> constraints;
  /// Parametric mode (parametric.hpp): when non-empty, `@name`
  /// parameters in the constraints stay symbolic over these declared
  /// ranges and the result carries a WcetFormula instead of running one
  /// concrete solve.  Rejected for lp input.
  std::vector<ParamDecl> parameters;
  CacheMode cacheMode = CacheMode::AllMiss;
  CachePolicy cachePolicy = CachePolicy::ReadWrite;
  /// Per-solve resource policy (threads, deadline, presolve, tracer,
  /// cancel).
  SolveControl control;
};

struct AnalysisResult {
  /// Label echoed from the request (after defaulting).
  std::string program;
  /// The estimate: freshly solved, or synthesized from a cache hit
  /// (bound + constraintSets only; per-set records are not cached).  A
  /// solved parametric request carries the formula's hull with the
  /// stats and set records of every direct solve of its sweep.
  Estimate estimate;
  /// Content-addressed keys of the analysed system (see digest.hpp),
  /// computed only where a cache reads them: empty for a Bypass request
  /// or a disabled cache.  For LP input the two digests coincide: there
  /// is no shared structural core.  For parametric requests both fields
  /// hold the *parametric* digest (the formula-cache key — what the
  /// serve "evaluate" op takes), computed with or without a cache.
  Digest fullDigest;
  Digest structuralDigest;
  /// Parametric requests only: the closed-form piecewise bound.  The
  /// `estimate` then carries the formula's hull over the declared box.
  std::optional<WcetFormula> formula;
  /// The bound was served from the cache; no solve ran.
  bool cacheHit = false;
  /// Wall µs of the whole analyze() call (compile + digest + solve).
  std::int64_t wallMicros = 0;
  /// On a cache hit: wall µs the original cold solve took (what the
  /// hit saved); otherwise the µs this request's solve took.
  std::int64_t solveMicros = 0;
};

/// A request after AnalysisService::resolve(): what lookup() and
/// solve() read.
struct ResolvedRequest {
  /// The request with its input resolved: a benchmark is replaced by
  /// its source, the root is defaulted, the benchmark's constraints
  /// precede the request's own, and the label is defaulted.  The
  /// SolveControl is the caller's to adjust before solve(); it is not
  /// part of the request key.
  AnalysisRequest request;
  /// Request-memo key; set only when the request reads the cache.
  std::optional<Digest> memoKey;
  /// When resolve() began: a hit's wallMicros counts from here.
  std::chrono::steady_clock::time_point start;
};

/// Resolved form of a named benchmark: what the service needs to build
/// the analyzer without depending on cin_suite.
struct ResolvedProgram {
  std::string source;
  std::string root;
  std::vector<RequestConstraint> constraints;
};

/// Maps a benchmark name to its program, or nullopt when unknown.  Must
/// be thread-safe (the daemon resolves from its connection threads).
using ProgramResolver =
    std::function<std::optional<ResolvedProgram>(const std::string&)>;

struct AnalysisServiceOptions {
  SolveCacheOptions cache;
  /// Benchmark-name resolution seam; when empty, `benchmark` requests
  /// are rejected with an AnalysisError.
  ProgramResolver benchmarkResolver;
};

/// Thread-safe analysis front door: concurrent analyze() calls share
/// only the internally locked SolveCache.
class AnalysisService {
 public:
  explicit AnalysisService(AnalysisServiceOptions options = {});

  /// Runs one analysis end to end, or answers it from the request memo
  /// when the same request was answered before and its answer is still
  /// cached: resolve(), then lookup(), then solve() on a miss.  Throws
  /// Error (ParseError / AnalysisError) on invalid requests or
  /// un-analysable input; solver degradation is reported inside the
  /// Estimate, never thrown.
  ///
  /// `telemetry` (optional) receives per-stage wall timings — resolve,
  /// frontend, cfg, digest, cache-lookup, solve, cache-store — scoped
  /// to exactly this request; its tracer (when enabled) is handed to
  /// the solver via SolveControl.  Telemetry never changes any analysis
  /// answer: it is timers around the existing pipeline, nothing more.
  [[nodiscard]] AnalysisResult analyze(
      const AnalysisRequest& request,
      obs::RequestTelemetry* telemetry = nullptr) const;

  /// Stage 1: validates the request, resolves a benchmark through the
  /// ProgramResolver, and hashes the request key once when the request
  /// reads the cache.  Compiles nothing.  Throws AnalysisError on an
  /// invalid request or an unknown benchmark.
  [[nodiscard]] ResolvedRequest resolve(
      const AnalysisRequest& request,
      obs::RequestTelemetry* telemetry = nullptr) const;

  /// Stage 2: one request-memo lookup.  Returns the answer when the
  /// request was answered before and its bound or formula is still
  /// cached; nullopt on a miss or when the request does not read the
  /// cache.  Runs no solve.
  [[nodiscard]] std::optional<AnalysisResult> lookup(
      const ResolvedRequest& resolved,
      obs::RequestTelemetry* telemetry = nullptr) const;

  /// Stage 3, the miss path: compiles, builds the system, looks its
  /// digest up, solves on a miss, admits the result and memoizes the
  /// request key.  Never consults the request memo again.
  [[nodiscard]] AnalysisResult solve(
      const ResolvedRequest& resolved,
      obs::RequestTelemetry* telemetry = nullptr) const;

  /// The caching core, for callers that already built an Analyzer (the
  /// CLI compiles once for annotate/dump output and reuses it here).
  /// `request` supplies the label, cache policy and SolveControl; the
  /// analyzer supplies the system.
  [[nodiscard]] AnalysisResult analyzeWith(
      const Analyzer& analyzer, const AnalysisRequest& request,
      obs::RequestTelemetry* telemetry = nullptr) const;

  /// The parametric counterpart of analyzeWith: runs the parametric
  /// engine (or serves the formula from the cache) for
  /// `request.parameters` over `analyzer`'s constraint system.  The
  /// analyzer is non-const because the engine binds parameters per
  /// sample point; bindings are cleared before returning.
  [[nodiscard]] AnalysisResult analyzeParametricWith(
      Analyzer& analyzer, const AnalysisRequest& request,
      obs::RequestTelemetry* telemetry = nullptr) const;

  [[nodiscard]] SolveCache& cache() const { return cache_; }

 private:
  /// Whether `request` may read the cache (enabled, not Bypass).
  [[nodiscard]] bool usesCache(const AnalysisRequest& request) const;

  [[nodiscard]] AnalysisResult analyzeLp(
      const AnalysisRequest& request,
      obs::RequestTelemetry* telemetry) const;

  AnalysisServiceOptions options_;
  /// Mutable: looking up a bound reorders the LRU chains and bumps the
  /// counters, but never changes any analysis answer.
  mutable SolveCache cache_;
};

}  // namespace cinderella::ipet
