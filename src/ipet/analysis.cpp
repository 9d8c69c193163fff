#include "cinderella/ipet/analysis.hpp"

#include <chrono>
#include <cmath>
#include <algorithm>

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

/// Exact integral objective of a solved ILP, preferring the checked
/// 64-bit recomputation over the lossy double.
std::int64_t exactObjective(const ilp::IlpSolution& solution) {
  if (solution.objectiveIsExact) return solution.objectiveExact;
  return static_cast<std::int64_t>(std::llround(solution.objective));
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

AnalysisResult AnalysisService::analyze(
    const AnalysisRequest& request, obs::RequestTelemetry* telemetry) const {
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
    return analyzeLp(request, telemetry);
  }

  std::string source = request.source;
  std::string root = request.root;
  std::vector<RequestConstraint> constraints;
  if (!request.benchmark.empty()) {
    if (!options_.benchmarkResolver) {
      throw AnalysisError("benchmark input is not available here (no "
                          "benchmark resolver installed)");
    }
    auto resolveTimer = obs::timeStage(telemetry, obs::RequestStage::Resolve);
    std::optional<ResolvedProgram> resolved =
        options_.benchmarkResolver(request.benchmark);
    resolveTimer.stop();
    if (!resolved) {
      throw AnalysisError("unknown benchmark '" + request.benchmark + "'");
    }
    source = std::move(resolved->source);
    if (root.empty()) root = std::move(resolved->root);
    constraints = std::move(resolved->constraints);
  }
  if (root.empty()) root = "main";
  constraints.insert(constraints.end(), request.constraints.begin(),
                     request.constraints.end());

  auto frontendTimer = obs::timeStage(telemetry, obs::RequestStage::Frontend);
  const codegen::CompileResult compiled = codegen::compileSource(source);
  frontendTimer.stop();

  auto cfgTimer = obs::timeStage(telemetry, obs::RequestStage::Cfg);
  AnalyzerOptions aopt;
  aopt.cacheMode = request.cacheMode;
  Analyzer analyzer(compiled, root, aopt);
  for (const RequestConstraint& c : constraints) {
    analyzer.addConstraint(c.text, c.scope);
  }
  cfgTimer.stop();
  if (!request.parameters.empty()) {
    return analyzeParametricWith(analyzer, request, telemetry);
  }
  return analyzeWith(analyzer, request, telemetry);
}

AnalysisResult AnalysisService::analyzeWith(
    const Analyzer& analyzer, const AnalysisRequest& request,
    obs::RequestTelemetry* telemetry) const {
  const Clock::time_point start = Clock::now();
  AnalysisResult result;
  result.program = defaultLabel(request);

  auto digestTimer = obs::timeStage(telemetry, obs::RequestStage::Digest);
  const Analyzer::SystemDigests digests = analyzer.systemDigests();
  digestTimer.stop();
  result.fullDigest = digests.full;
  result.structuralDigest = digests.structural;

  const bool useCache =
      cache_.enabled() && request.cachePolicy != CachePolicy::Bypass;
  if (useCache) {
    auto lookupTimer =
        obs::timeStage(telemetry, obs::RequestStage::CacheLookup);
    std::optional<CachedBound> hit = cache_.lookupBound(digests.full);
    lookupTimer.stop();
    if (hit) {
      // An identical ILP system was solved and verified before: the
      // cached interval IS the answer (equal full digests => equal
      // systems => equal bounds), so no solve runs.
      result.cacheHit = true;
      result.estimate.bound = hit->bound;
      result.estimate.stats.constraintSets = hit->constraintSets;
      result.solveMicros = hit->solveWallMicros;
      result.wallMicros = microsSince(start);
      return result;
    }
  }

  SolveControl control = request.control;
  if (control.tracer == nullptr && telemetry != nullptr) {
    control.tracer = telemetry->tracer();
  }
  const Clock::time_point solveStart = Clock::now();
  {
    auto solveTimer = obs::timeStage(telemetry, obs::RequestStage::Solve);
    result.estimate = analyzer.estimate(control);
  }
  result.solveMicros = microsSince(solveStart);

  if (useCache && request.cachePolicy == CachePolicy::ReadWrite) {
    auto storeTimer = obs::timeStage(telemetry, obs::RequestStage::CacheStore);
    cache_.insert(digests.full, result.estimate, result.solveMicros);
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

  auto digestTimer = obs::timeStage(telemetry, obs::RequestStage::Digest);
  const Digest parametric = analyzer.parametricDigest(request.parameters);
  digestTimer.stop();
  // Both digest fields carry the parametric key: it is what the formula
  // cache and the serve "evaluate" op address this result by (the
  // concrete full/structural digests vary per sample point).
  result.fullDigest = parametric;
  result.structuralDigest = parametric;

  const bool useCache =
      cache_.enabled() && request.cachePolicy != CachePolicy::Bypass;
  if (useCache) {
    auto lookupTimer =
        obs::timeStage(telemetry, obs::RequestStage::CacheLookup);
    std::optional<CachedFormula> hit = cache_.lookupFormula(parametric);
    lookupTimer.stop();
    if (hit) {
      // The same system with the same symbolic parameters was already
      // run through the parametric engine; the cached piecewise bound
      // is the verified answer for every point in the box.
      result.cacheHit = true;
      result.formula = std::move(hit->formula);
      result.estimate.bound = result.formula->hull();
      result.solveMicros = hit->solveWallMicros;
      result.wallMicros = microsSince(start);
      return result;
    }
  }

  SolveControl control = request.control;
  if (control.tracer == nullptr && telemetry != nullptr) {
    control.tracer = telemetry->tracer();
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

  auto digestTimer = obs::timeStage(telemetry, obs::RequestStage::Digest);
  DigestBuilder builder;
  builder.tag('L');
  builder.u32(static_cast<std::uint32_t>(problems.size()));
  for (const lp::Problem& problem : problems) digestProblem(&builder, problem);
  result.fullDigest = builder.finish();
  digestTimer.stop();
  // A stand-alone LP system has no structural core shared with other
  // requests, so the structural key collapses onto the full key.
  result.structuralDigest = result.fullDigest;

  const bool useCache =
      cache_.enabled() && request.cachePolicy != CachePolicy::Bypass;
  if (useCache) {
    auto lookupTimer =
        obs::timeStage(telemetry, obs::RequestStage::CacheLookup);
    std::optional<CachedBound> hit = cache_.lookupBound(result.fullDigest);
    lookupTimer.stop();
    if (hit) {
      result.cacheHit = true;
      result.estimate.bound = hit->bound;
      result.estimate.stats.constraintSets = hit->constraintSets;
      result.solveMicros = hit->solveWallMicros;
      result.wallMicros = microsSince(start);
      return result;
    }
  }

  const SolveControl& control = request.control;
  const bool hasDeadline = control.deadline.count() != 0;
  const Clock::time_point deadlineAt = Clock::now() + control.deadline;
  ilp::IlpOptions ilpOptions;
  if (control.maxNodes > 0) ilpOptions.maxNodes = control.maxNodes;
  ilpOptions.interrupt = [&]() {
    if (control.cancel != nullptr &&
        control.cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    return hasDeadline && Clock::now() >= deadlineAt;
  };

  Estimate& estimate = result.estimate;
  estimate.stats.constraintSets = static_cast<int>(problems.size());
  std::vector<std::int64_t> maxima;
  std::vector<std::int64_t> minima;
  const Clock::time_point solveStart = Clock::now();
  auto solveTimer = obs::timeStage(telemetry, obs::RequestStage::Solve);

  for (std::size_t i = 0; i < problems.size(); ++i) {
    const lp::Problem& problem = problems[i];
    const Clock::time_point ilpStart = Clock::now();
    const ilp::IlpSolution solution = ilp::solve(problem, ilpOptions);
    if (control.cancel != nullptr &&
        control.cancel->load(std::memory_order_relaxed)) {
      throw AnalysisError("analysis cancelled");
    }
    if (solution.status == ilp::IlpStatus::Infeasible ||
        solution.status == ilp::IlpStatus::Unbounded) {
      throw AnalysisError("lp input: problem " + std::to_string(i + 1) +
                          " is " + ilp::ilpStatusStr(solution.status));
    }

    const bool maximize = problem.sense() == lp::Sense::Maximize;
    SetSolveRecord record;
    record.setIndex = static_cast<int>(i);
    IlpSolveRecord ilpRecord;
    ilpRecord.solved = true;
    ilpRecord.feasible = solution.status == ilp::IlpStatus::Optimal;
    ilpRecord.nodes = solution.stats.nodesExpanded;
    ilpRecord.lpCalls = solution.stats.lpCalls;
    ilpRecord.pivots = solution.stats.totalPivots;
    ilpRecord.firstRelaxationIntegral = solution.stats.firstRelaxationIntegral;
    ilpRecord.checkedPromotions = solution.stats.checkedPromotions;
    ilpRecord.blandRestarts = solution.stats.blandRestarts;
    ilpRecord.wallMicros = microsSince(ilpStart);

    estimate.stats.ilpSolves += 1;
    estimate.stats.lpCalls += solution.stats.lpCalls;
    estimate.stats.nodesExpanded += solution.stats.nodesExpanded;
    estimate.stats.totalPivots += solution.stats.totalPivots;
    estimate.stats.checkedPromotions += solution.stats.checkedPromotions;
    estimate.stats.blandRestarts += solution.stats.blandRestarts;
    estimate.stats.allFirstRelaxationsIntegral =
        estimate.stats.allFirstRelaxationsIntegral &&
        solution.stats.firstRelaxationIntegral;

    if (ilpRecord.feasible) {
      ilpRecord.objective = exactObjective(solution);
      (maximize ? maxima : minima).push_back(ilpRecord.objective);
      record.verdict = SetVerdict::Exact;
    } else {
      // Limit or Interrupted: this side of the system could not be
      // bounded exactly and — unlike the analyzer pipeline, which owns
      // the base problem — there is no structural fallback to degrade
      // to, so the set fails and the estimate reports itself unsound.
      const bool deadlineHit = hasDeadline && Clock::now() >= deadlineAt;
      record.verdict = SetVerdict::Failed;
      record.issue = deadlineHit ? ErrorCode::DeadlineExpired
                                 : ErrorCode::NodeBudgetExhausted;
      ilpRecord.degraded = true;
      estimate.stats.failedSets += 1;
      if (deadlineHit) estimate.timedOut = true;
      SolveIssue issue;
      issue.setIndex = static_cast<int>(i);
      issue.code = record.issue;
      issue.phase = maximize ? "ilp-worst" : "ilp-best";
      issue.detail = std::string("lp input: ") +
                     ilp::ilpStatusStr(solution.status);
      estimate.issues.push_back(std::move(issue));
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
