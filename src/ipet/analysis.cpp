#include "cinderella/ipet/analysis.hpp"

#include <algorithm>
#include <chrono>
#include <variant>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/ipet/parametric.hpp"
#include "cinderella/lp/lp_format.hpp"
#include "cinderella/obs/request_telemetry.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella::ipet {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t microsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start)
      .count();
}

std::string defaultLabel(const AnalysisRequest& request) {
  if (!request.label.empty()) return request.label;
  if (!request.benchmark.empty()) return request.benchmark;
  return request.lpInput ? "<lp>" : "<source>";
}

/// Digest of a stand-alone LP problem: sense, variable count, canonical
/// objective, and the sorted/deduplicated canonical rows.  Everything
/// explicit little-endian via DigestBuilder, so the key is byte-stable.
void digestProblem(DigestBuilder* builder, const lp::Problem& problem) {
  builder->tag('P');
  builder->u8(problem.sense() == lp::Sense::Maximize ? 'M' : 'm');
  builder->u32(static_cast<std::uint32_t>(problem.numVars()));
  lp::LinearExpr objective = problem.objective();
  objective.canonicalize();
  builder->u32(static_cast<std::uint32_t>(objective.terms().size()));
  for (const lp::Term& term : objective.terms()) {
    builder->u32(static_cast<std::uint32_t>(term.var));
    builder->f64(term.coeff);
  }
  builder->f64(objective.constant());
  std::vector<std::string> rows;
  rows.reserve(problem.constraints().size());
  for (const lp::Constraint& c : problem.constraints()) {
    rows.push_back(canonicalRowKey(c));
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  builder->u32(static_cast<std::uint32_t>(rows.size()));
  for (const std::string& row : rows) builder->str(row);
}

/// Request-memo key (solve_cache.hpp) of a resolved request: everything
/// the analyzer would see — input kind, the resolved source, the
/// defaulted root, the merged constraint list in order, the parameter
/// declarations and the cache mode.  Like the system digest it leaves
/// out the label, the cache policy and the SolveControl, none of which
/// changes the answer.
Digest requestKey(const AnalysisRequest& request) {
  DigestBuilder builder;
  builder.tag('R');
  builder.u8(request.lpInput ? 1 : 0);
  builder.str(request.source);
  builder.str(request.root);
  builder.u32(static_cast<std::uint32_t>(request.constraints.size()));
  for (const RequestConstraint& c : request.constraints) {
    builder.str(c.text);
    builder.str(c.scope);
  }
  builder.u32(static_cast<std::uint32_t>(request.parameters.size()));
  for (const ParamDecl& p : request.parameters) {
    builder.str(p.name);
    builder.i64(p.lo);
    builder.i64(p.hi);
  }
  builder.u8(static_cast<std::uint8_t>(request.cacheMode));
  return builder.finish();
}

/// The one way a cache hit becomes a result, whether the digest path or
/// the request memo found it: the cached answer IS the answer (equal
/// digests => equal systems => equal bounds), so no solve runs.
AnalysisResult hitResult(const AnalysisRequest& request,
                         const RequestDigests& digests, CachedAnswer answer,
                         Clock::time_point start) {
  AnalysisResult result;
  result.program = defaultLabel(request);
  result.fullDigest = digests.full;
  result.structuralDigest = digests.structural;
  result.cacheHit = true;
  if (CachedBound* hit = std::get_if<CachedBound>(&answer)) {
    result.estimate.bound = hit->bound;
    result.estimate.stats.constraintSets = hit->constraintSets;
    result.solveMicros = hit->solveWallMicros;
  } else {
    CachedFormula& formula = std::get<CachedFormula>(answer);
    result.formula = std::move(formula.formula);
    result.estimate.bound = result.formula->hull();
    result.solveMicros = formula.solveWallMicros;
  }
  result.wallMicros = microsSince(start);
  return result;
}

}  // namespace

const char* cachePolicyStr(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::ReadWrite:
      return "readwrite";
    case CachePolicy::ReadOnly:
      return "readonly";
    case CachePolicy::Bypass:
      return "bypass";
  }
  return "?";
}

std::optional<CachePolicy> parseCachePolicy(std::string_view text) {
  if (text == "readwrite" || text == "rw") return CachePolicy::ReadWrite;
  if (text == "readonly" || text == "ro") return CachePolicy::ReadOnly;
  if (text == "bypass" || text == "off") return CachePolicy::Bypass;
  return std::nullopt;
}

AnalysisService::AnalysisService(AnalysisServiceOptions options)
    : options_(std::move(options)), cache_(options_.cache) {}

bool AnalysisService::usesCache(const AnalysisRequest& request) const {
  return cache_.enabled() && request.cachePolicy != CachePolicy::Bypass;
}

AnalysisResult AnalysisService::analyze(
    const AnalysisRequest& request, obs::RequestTelemetry* telemetry) const {
  const ResolvedRequest resolved = resolve(request, telemetry);
  if (std::optional<AnalysisResult> hit = lookup(resolved, telemetry)) {
    return std::move(*hit);
  }
  return solve(resolved, telemetry);
}

ResolvedRequest AnalysisService::resolve(
    const AnalysisRequest& request, obs::RequestTelemetry* telemetry) const {
  ResolvedRequest resolved;
  resolved.start = Clock::now();
  if (!request.benchmark.empty() && !request.source.empty()) {
    throw AnalysisError("request has both a source and a benchmark");
  }
  if (request.benchmark.empty() && request.source.empty()) {
    throw AnalysisError("request has no input (source or benchmark)");
  }
  if (request.lpInput) {
    if (!request.benchmark.empty()) {
      throw AnalysisError("lp input cannot name a benchmark");
    }
    if (!request.constraints.empty()) {
      throw AnalysisError(
          "functionality constraints apply to MiniC input, not lp input");
    }
    if (!request.parameters.empty()) {
      throw AnalysisError(
          "parametric analysis applies to MiniC input, not lp input");
    }
  }

  AnalysisRequest& out = resolved.request;
  out = request;
  out.label = defaultLabel(request);
  if (!request.benchmark.empty()) {
    if (!options_.benchmarkResolver) {
      throw AnalysisError("benchmark input is not available here (no "
                          "benchmark resolver installed)");
    }
    auto resolveTimer = obs::timeStage(telemetry, obs::RequestStage::Resolve);
    std::optional<ResolvedProgram> program =
        options_.benchmarkResolver(request.benchmark);
    resolveTimer.stop();
    if (!program) {
      throw AnalysisError("unknown benchmark '" + request.benchmark + "'");
    }
    out.benchmark.clear();
    out.source = std::move(program->source);
    if (out.root.empty()) out.root = std::move(program->root);
    out.constraints = std::move(program->constraints);
    out.constraints.insert(out.constraints.end(), request.constraints.begin(),
                           request.constraints.end());
  }
  if (out.root.empty()) out.root = "main";

  if (usesCache(out)) {
    auto digestTimer = obs::timeStage(telemetry, obs::RequestStage::Digest);
    resolved.memoKey = requestKey(out);
  }
  return resolved;
}

std::optional<AnalysisResult> AnalysisService::lookup(
    const ResolvedRequest& resolved, obs::RequestTelemetry* telemetry) const {
  if (!resolved.memoKey) return std::nullopt;
  auto lookupTimer = obs::timeStage(telemetry, obs::RequestStage::CacheLookup);
  std::optional<RequestHit> hit = cache_.lookupRequest(*resolved.memoKey);
  lookupTimer.stop();
  if (!hit) return std::nullopt;
  return hitResult(resolved.request, hit->digests, std::move(hit->answer),
                   resolved.start);
}

AnalysisResult AnalysisService::solve(const ResolvedRequest& resolved,
                                      obs::RequestTelemetry* telemetry) const {
  const AnalysisRequest& request = resolved.request;
  AnalysisResult result;
  if (request.lpInput) {
    result = analyzeLp(request, telemetry);
  } else {
    auto frontendTimer =
        obs::timeStage(telemetry, obs::RequestStage::Frontend);
    const codegen::CompileResult compiled =
        codegen::compileSource(request.source);
    frontendTimer.stop();

    auto cfgTimer = obs::timeStage(telemetry, obs::RequestStage::Cfg);
    AnalyzerOptions aopt;
    aopt.cacheMode = request.cacheMode;
    Analyzer analyzer(compiled, request.root, aopt);
    for (const RequestConstraint& c : request.constraints) {
      analyzer.addConstraint(c.text, c.scope);
    }
    cfgTimer.stop();
    result = request.parameters.empty()
                 ? analyzeWith(analyzer, request, telemetry)
                 : analyzeParametricWith(analyzer, request, telemetry);
  }
  if (resolved.memoKey && request.cachePolicy == CachePolicy::ReadWrite) {
    cache_.recordRequest(*resolved.memoKey,
                         {result.fullDigest, result.structuralDigest,
                          !request.parameters.empty()});
  }
  return result;
}

AnalysisResult AnalysisService::analyzeWith(
    const Analyzer& analyzer, const AnalysisRequest& request,
    obs::RequestTelemetry* telemetry) const {
  const Clock::time_point start = Clock::now();
  AnalysisResult result;
  result.program = defaultLabel(request);
  SolveControl control = request.control;
  if (control.tracer == nullptr && telemetry != nullptr) {
    control.tracer = telemetry->tracer();
  }

  // Only a cache reads the digests, so a run without one never hashes
  // its system and returns empty digests.
  const bool useCache = usesCache(request);
  if (useCache) {
    auto digestTimer = obs::timeStage(telemetry, obs::RequestStage::Digest);
    const Analyzer::SystemDigests digests =
        analyzer.systemDigests(control.tracer);
    digestTimer.stop();
    result.fullDigest = digests.full;
    result.structuralDigest = digests.structural;
    auto lookupTimer =
        obs::timeStage(telemetry, obs::RequestStage::CacheLookup);
    std::optional<CachedBound> hit = cache_.lookupBound(digests.full);
    lookupTimer.stop();
    if (hit) {
      return hitResult(request, {digests.full, digests.structural, false},
                       *hit, start);
    }
  }

  const Clock::time_point solveStart = Clock::now();
  {
    auto solveTimer = obs::timeStage(telemetry, obs::RequestStage::Solve);
    result.estimate = analyzer.estimate(control);
  }
  result.solveMicros = microsSince(solveStart);

  if (useCache && request.cachePolicy == CachePolicy::ReadWrite) {
    auto storeTimer = obs::timeStage(telemetry, obs::RequestStage::CacheStore);
    cache_.insert(result.fullDigest, result.estimate, result.solveMicros);
  }
  result.wallMicros = microsSince(start);
  return result;
}

AnalysisResult AnalysisService::analyzeParametricWith(
    Analyzer& analyzer, const AnalysisRequest& request,
    obs::RequestTelemetry* telemetry) const {
  const Clock::time_point start = Clock::now();
  CIN_REQUIRE(!request.parameters.empty());
  AnalysisResult result;
  result.program = defaultLabel(request);
  SolveControl control = request.control;
  if (control.tracer == nullptr && telemetry != nullptr) {
    control.tracer = telemetry->tracer();
  }

  auto digestTimer = obs::timeStage(telemetry, obs::RequestStage::Digest);
  const Digest parametric =
      analyzer.parametricDigest(request.parameters, control.tracer);
  digestTimer.stop();
  // Both digest fields carry the parametric key: it is what the formula
  // cache and the serve "evaluate" op address this result by (the
  // concrete full/structural digests vary per sample point).
  result.fullDigest = parametric;
  result.structuralDigest = parametric;

  const bool useCache = usesCache(request);
  if (useCache) {
    auto lookupTimer =
        obs::timeStage(telemetry, obs::RequestStage::CacheLookup);
    std::optional<CachedFormula> hit = cache_.lookupFormula(parametric);
    lookupTimer.stop();
    if (hit) {
      return hitResult(request, {parametric, parametric, true},
                       std::move(*hit), start);
    }
  }

  const Clock::time_point solveStart = Clock::now();
  ParametricResult solved;
  {
    auto solveTimer = obs::timeStage(telemetry, obs::RequestStage::Solve);
    solved = solveParametric(analyzer, request.parameters, control);
  }
  result.solveMicros = microsSince(solveStart);
  result.formula = std::move(solved.formula);
  result.estimate.bound = result.formula->hull();
  result.estimate.stats = solved.solveStats;
  result.estimate.setRecords = std::move(solved.setRecords);

  if (useCache && request.cachePolicy == CachePolicy::ReadWrite) {
    auto storeTimer = obs::timeStage(telemetry, obs::RequestStage::CacheStore);
    CachedFormula entry;
    entry.formula = *result.formula;
    entry.solveWallMicros = result.solveMicros;
    cache_.insertFormula(parametric, std::move(entry));
  }
  result.wallMicros = microsSince(start);
  return result;
}

AnalysisResult AnalysisService::analyzeLp(
    const AnalysisRequest& request, obs::RequestTelemetry* telemetry) const {
  const Clock::time_point start = Clock::now();
  AnalysisResult result;
  result.program = defaultLabel(request);

  auto frontendTimer = obs::timeStage(telemetry, obs::RequestStage::Frontend);
  const std::vector<lp::Problem> problems =
      lp::parseLpFormatAll(request.source);
  frontendTimer.stop();

  const bool useCache = usesCache(request);
  if (useCache) {
    auto digestTimer = obs::timeStage(telemetry, obs::RequestStage::Digest);
    DigestBuilder builder;
    builder.tag('L');
    builder.u32(static_cast<std::uint32_t>(problems.size()));
    for (const lp::Problem& problem : problems) {
      digestProblem(&builder, problem);
    }
    const Digest digest = builder.finish();
    digestTimer.stop();
    // A stand-alone LP system has no structural core shared with other
    // requests, so the structural key collapses onto the full key.
    result.fullDigest = digest;
    result.structuralDigest = digest;
    auto lookupTimer =
        obs::timeStage(telemetry, obs::RequestStage::CacheLookup);
    std::optional<CachedBound> hit = cache_.lookupBound(digest);
    lookupTimer.stop();
    if (hit) return hitResult(request, {digest, digest, false}, *hit, start);
  }

  const SolveControl& control = request.control;
  const Clock::time_point solveStart = Clock::now();
  const ilp::IlpOptions options = ilpOptions(control, solveStart);

  Estimate& estimate = result.estimate;
  estimate.stats.constraintSets = static_cast<int>(problems.size());
  std::vector<std::int64_t> maxima;
  std::vector<std::int64_t> minima;
  auto solveTimer = obs::timeStage(telemetry, obs::RequestStage::Solve);

  for (std::size_t i = 0; i < problems.size(); ++i) {
    const lp::Problem& problem = problems[i];
    const bool maximize = problem.sense() == lp::Sense::Maximize;
    SetSolveRecord record;
    record.setIndex = static_cast<int>(i);
    // Unlike the analyzer pipeline, which owns the base problem, a bare
    // LP system has no structural fallback to degrade to: a problem that
    // cannot be bounded exactly fails its set, and the estimate reports
    // itself unsound.
    auto fail = [&](ErrorCode code, const char* phase, std::string detail) {
      record.verdict = SetVerdict::Failed;
      record.issue = code;
      estimate.stats.failedSets += 1;
      if (code == ErrorCode::DeadlineExpired) estimate.timedOut = true;
      estimate.issues.push_back(
          {record.setIndex, code, phase, std::move(detail)});
    };
    if (std::optional<std::string> over = overMemoryCeiling(control, problem)) {
      fail(ErrorCode::MemoryCeiling, "set", std::move(*over));
      estimate.setRecords.push_back(std::move(record));
      continue;
    }

    const Clock::time_point ilpStart = Clock::now();
    const ilp::IlpSolution solution = ilp::solve(problem, options);
    if (cancelRequested(control)) throw AnalysisError("analysis cancelled");
    if (solution.status == ilp::IlpStatus::Infeasible ||
        solution.status == ilp::IlpStatus::Unbounded) {
      throw AnalysisError("lp input: problem " + std::to_string(i + 1) +
                          " is " + ilp::ilpStatusStr(solution.status));
    }

    IlpSolveRecord ilpRecord = ilpSolveRecord(solution);
    ilpRecord.wallMicros = microsSince(ilpStart);
    estimate.stats.addSolve(ilpRecord);
    if (ilpRecord.feasible) {
      (maximize ? maxima : minima).push_back(ilpRecord.objective);
      record.verdict = SetVerdict::Exact;
    } else {
      ilpRecord.degraded = true;
      fail(stopCode(control, solution, options.maxNodes),
           maximize ? "ilp-worst" : "ilp-best",
           std::string("lp input: ") + ilp::ilpStatusStr(solution.status));
    }
    (maximize ? record.worst : record.best) = ilpRecord;
    record.wallMicros = ilpRecord.wallMicros;
    estimate.setRecords.push_back(std::move(record));
  }
  solveTimer.stop();
  result.solveMicros = microsSince(solveStart);

  // Worst case from the maximization problems, best case from the
  // minimizations; a one-sided system falls back to the extremes of the
  // side it has, so the interval always encloses every optimum seen.
  const std::vector<std::int64_t>& hiSide = maxima.empty() ? minima : maxima;
  const std::vector<std::int64_t>& loSide = minima.empty() ? maxima : minima;
  if (!hiSide.empty()) {
    estimate.bound.hi = *std::max_element(hiSide.begin(), hiSide.end());
    estimate.bound.lo = *std::min_element(loSide.begin(), loSide.end());
  }

  if (useCache && request.cachePolicy == CachePolicy::ReadWrite) {
    auto storeTimer = obs::timeStage(telemetry, obs::RequestStage::CacheStore);
    cache_.insert(result.fullDigest, estimate, result.solveMicros);
  }
  result.wallMicros = microsSince(start);
  return result;
}

}  // namespace cinderella::ipet
