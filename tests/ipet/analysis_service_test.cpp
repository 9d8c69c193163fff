// The unified AnalysisRequest -> AnalysisResult API and its caching
// semantics: warm-cache answers are bit-identical to cold solves across
// every cache mode, cache policies behave as documented, LP-format
// input closes the paper's off-the-shelf-ILP loop, benchmark-name
// resolution goes through the injected ProgramResolver seam, and the
// request memo answers a repeat exactly as the digest path would.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analysis.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/obs/report.hpp"
#include "cinderella/obs/request_telemetry.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"
#include "test_util/temp_path.hpp"

namespace cinderella::ipet {
namespace {

constexpr const char* kFig2 =
    "int q;\nint r;\n"
    "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }";

constexpr const char* kLoop =
    "int acc;\n"
    "void f(int n) {\n"
    "  int i;\n"
    "  for (i = 0; i < 8; i = i + 1) { __loopbound(8, 8); acc = acc + i; }\n"
    "}";

AnalysisRequest fig2Request() {
  AnalysisRequest request;
  request.source = kFig2;
  request.root = "f";
  request.constraints.push_back({"x1 = 0 | x2 = 0", ""});
  return request;
}

TEST(AnalysisService, CachePolicyRoundTrip) {
  for (const CachePolicy policy :
       {CachePolicy::ReadWrite, CachePolicy::ReadOnly, CachePolicy::Bypass}) {
    const auto back = parseCachePolicy(cachePolicyStr(policy));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, policy);
  }
  EXPECT_EQ(parseCachePolicy("rw"), CachePolicy::ReadWrite);
  EXPECT_EQ(parseCachePolicy("off"), CachePolicy::Bypass);
  EXPECT_FALSE(parseCachePolicy("sometimes").has_value());
}

TEST(AnalysisService, RejectsAmbiguousOrEmptyInput) {
  AnalysisService service;
  EXPECT_THROW((void)service.analyze(AnalysisRequest{}), Error);
  AnalysisRequest both;
  both.source = kFig2;
  both.benchmark = "piksrt";
  EXPECT_THROW((void)service.analyze(both), Error);
}

TEST(AnalysisService, WarmCacheEqualsColdSolveAcrossCacheModes) {
  for (const CacheMode mode :
       {CacheMode::AllMiss, CacheMode::FirstIterationSplit,
        CacheMode::ConflictGraph}) {
    AnalysisService service;
    AnalysisRequest request = fig2Request();
    request.cacheMode = mode;

    const AnalysisResult cold = service.analyze(request);
    EXPECT_FALSE(cold.cacheHit) << cacheModeStr(mode);
    const AnalysisResult warm = service.analyze(request);
    EXPECT_TRUE(warm.cacheHit) << cacheModeStr(mode);
    EXPECT_EQ(warm.estimate.bound.lo, cold.estimate.bound.lo);
    EXPECT_EQ(warm.estimate.bound.hi, cold.estimate.bound.hi);
    EXPECT_EQ(warm.fullDigest, cold.fullDigest);
    EXPECT_EQ(warm.estimate.stats.constraintSets,
              cold.estimate.stats.constraintSets);
  }
}

TEST(AnalysisService, CacheModesKeySeparateEntries) {
  // On a loop program the first-iteration split rewrites the ILP (extra
  // split variables and rows), so each mode gets its own content
  // address — a firstiter answer can never shadow an allmiss one.
  AnalysisService service;
  AnalysisRequest request;
  request.source = kLoop;
  request.root = "f";
  request.cacheMode = CacheMode::AllMiss;
  const AnalysisResult allMiss = service.analyze(request);
  request.cacheMode = CacheMode::FirstIterationSplit;
  const AnalysisResult firstIter = service.analyze(request);
  EXPECT_FALSE(firstIter.cacheHit);
  EXPECT_NE(allMiss.fullDigest, firstIter.fullDigest);

  // On a loop-free program every cache mode induces the identical ILP,
  // so the content address — which hashes the ILP, not the mode flag —
  // deliberately coincides: the modes share one (equally valid) entry.
  AnalysisRequest straight = fig2Request();
  straight.cacheMode = CacheMode::AllMiss;
  const AnalysisResult straightAllMiss = service.analyze(straight);
  straight.cacheMode = CacheMode::FirstIterationSplit;
  const AnalysisResult straightFirstIter = service.analyze(straight);
  EXPECT_EQ(straightAllMiss.fullDigest, straightFirstIter.fullDigest);
  EXPECT_TRUE(straightFirstIter.cacheHit);
  EXPECT_EQ(straightFirstIter.estimate.bound.hi,
            straightAllMiss.estimate.bound.hi);
}

TEST(AnalysisService, ReadOnlyPolicyNeverInserts) {
  AnalysisService service;
  AnalysisRequest request = fig2Request();
  request.cachePolicy = CachePolicy::ReadOnly;
  const AnalysisResult first = service.analyze(request);
  EXPECT_FALSE(first.cacheHit);
  EXPECT_EQ(service.cache().boundEntries(), 0u);

  // But a read-only request is served from an entry someone else wrote.
  request.cachePolicy = CachePolicy::ReadWrite;
  (void)service.analyze(request);
  request.cachePolicy = CachePolicy::ReadOnly;
  const AnalysisResult served = service.analyze(request);
  EXPECT_TRUE(served.cacheHit);
  EXPECT_EQ(served.estimate.bound.hi, first.estimate.bound.hi);
}

TEST(AnalysisService, BypassPolicySolvesColdEveryTime) {
  AnalysisService service;
  AnalysisRequest request = fig2Request();
  (void)service.analyze(request);  // populate
  request.cachePolicy = CachePolicy::Bypass;
  const AnalysisResult bypass = service.analyze(request);
  EXPECT_FALSE(bypass.cacheHit);
  // It still produced the same answer, just by solving.
  EXPECT_GT(bypass.estimate.stats.ilpSolves, 0);
}

TEST(AnalysisService, DisabledCacheAlwaysSolves) {
  AnalysisServiceOptions options;
  options.cache.capacity = 0;
  AnalysisService service(options);
  const AnalysisResult a = service.analyze(fig2Request());
  const AnalysisResult b = service.analyze(fig2Request());
  EXPECT_FALSE(a.cacheHit);
  EXPECT_FALSE(b.cacheHit);
  EXPECT_EQ(a.estimate.bound.hi, b.estimate.bound.hi);
}

TEST(AnalysisService, RelatedSystemIsSolvedAfresh) {
  // Same program, different functionality constraints: the structural
  // digests match but the full digests differ, so the bound cache
  // misses and the second system is solved from scratch.
  AnalysisService service;
  AnalysisRequest first = fig2Request();
  const AnalysisResult cold = service.analyze(first);
  ASSERT_FALSE(cold.cacheHit);

  AnalysisRequest related = fig2Request();
  related.constraints.clear();
  related.constraints.push_back({"x1 = 1", ""});
  const AnalysisResult second = service.analyze(related);
  EXPECT_FALSE(second.cacheHit);
  EXPECT_EQ(second.structuralDigest, cold.structuralDigest);
  EXPECT_NE(second.fullDigest, cold.fullDigest);
}

TEST(AnalysisService, UnstoredRequestsSolveLikeADirectEstimate) {
  // Whatever the cache policy, a cold request takes exactly the direct
  // estimate's path: the service adds no solve of its own (recon in ccg
  // mode needs 6 branch-and-bound nodes that way).
  const suite::Benchmark& bench = suite::benchmarkByName("recon");
  const auto compiled = codegen::compileSource(bench.source);
  AnalyzerOptions aopt;
  aopt.cacheMode = CacheMode::ConflictGraph;
  Analyzer analyzer(compiled, bench.rootFunction, aopt);
  for (const auto& c : bench.constraints) {
    analyzer.addConstraint(c.text, c.scope);
  }
  const Estimate direct = analyzer.estimate();
  EXPECT_EQ(direct.stats.nodesExpanded, 6);

  AnalysisServiceOptions cacheless;
  cacheless.cache.capacity = 0;
  const std::pair<CachePolicy, AnalysisServiceOptions> cases[] = {
      {CachePolicy::Bypass, {}},
      {CachePolicy::ReadOnly, {}},
      {CachePolicy::ReadWrite, {}},
      {CachePolicy::ReadWrite, cacheless}};
  for (const auto& [policy, options] : cases) {
    AnalysisService service(options);
    AnalysisRequest request;
    request.cachePolicy = policy;
    const AnalysisResult result = service.analyzeWith(analyzer, request);
    const std::string label =
        std::string(cachePolicyStr(policy)) +
        (options.cache.capacity == 0 ? " cache-less" : "");
    EXPECT_FALSE(result.cacheHit) << label;
    EXPECT_EQ(result.estimate.bound, direct.bound) << label;
    EXPECT_EQ(result.estimate.stats.nodesExpanded, direct.stats.nodesExpanded)
        << label;
    EXPECT_EQ(result.estimate.stats.totalPivots, direct.stats.totalPivots)
        << label;
  }
}

TEST(AnalysisService, SingleSetProgramSolvesNoSeedUnlessStoring) {
  // No request solves a structural seed, stored or not.
  AnalysisRequest request;
  request.source = kLoop;
  request.root = "f";
  for (const CachePolicy policy :
       {CachePolicy::Bypass, CachePolicy::ReadOnly, CachePolicy::ReadWrite}) {
    AnalysisService service;
    request.cachePolicy = policy;
    const AnalysisResult result = service.analyze(request);
    EXPECT_EQ(result.estimate.stats.constraintSets, 1);
    EXPECT_EQ(result.estimate.stats.seedPivots, 0) << cachePolicyStr(policy);
  }
}

TEST(AnalysisService, BenchmarkResolutionGoesThroughTheResolver) {
  AnalysisServiceOptions options;
  options.benchmarkResolver =
      [](const std::string& name) -> std::optional<ResolvedProgram> {
    if (name != "fig2") return std::nullopt;
    ResolvedProgram program;
    program.source = kFig2;
    program.root = "f";
    return program;
  };
  AnalysisService service(options);

  AnalysisRequest request;
  request.benchmark = "fig2";
  const AnalysisResult viaName = service.analyze(request);
  EXPECT_EQ(viaName.program, "fig2");

  AnalysisRequest bySource;
  bySource.source = kFig2;
  bySource.root = "f";
  const AnalysisResult viaSource = service.analyze(bySource);
  EXPECT_EQ(viaSource.estimate.bound.hi, viaName.estimate.bound.hi);
  // Content addressing: the benchmark entry serves the source request.
  EXPECT_TRUE(viaSource.cacheHit);

  AnalysisRequest unknown;
  unknown.benchmark = "nonesuch";
  EXPECT_THROW((void)service.analyze(unknown), Error);

  // Without a resolver, benchmark requests are rejected outright.
  AnalysisService bare;
  EXPECT_THROW((void)bare.analyze(request), Error);
}

TEST(AnalysisService, LpInputClosesTheExportLoop) {
  // Export the worst-case ILP of a real program, feed the text back in
  // as LP input: the LP route's hi bound must equal the analyzer's.
  const auto compiled = codegen::compileSource(kLoop);
  Analyzer analyzer(compiled, "f");
  const Estimate direct = analyzer.estimate();
  const std::string lpText = analyzer.exportWorstCaseIlp();

  AnalysisService service;
  AnalysisRequest request;
  request.lpInput = true;
  request.source = lpText;
  const AnalysisResult viaLp = service.analyze(request);
  EXPECT_EQ(viaLp.estimate.bound.hi, direct.bound.hi);
  // LP input has no structural core; the digests coincide.
  EXPECT_EQ(viaLp.fullDigest, viaLp.structuralDigest);

  // And the LP route caches like any other input.
  const AnalysisResult again = service.analyze(request);
  EXPECT_TRUE(again.cacheHit);
  EXPECT_EQ(again.estimate.bound.hi, viaLp.estimate.bound.hi);
}

TEST(AnalysisService, LpInputHonoursPresolveAndReportsItsCounters) {
  // des's exported worst-case ILP through the LP route, with presolve on
  // and off: the switch reaches the solver, and the LP route reports
  // the counters the MiniC route reports for the same system.
  const suite::Benchmark& bench = suite::benchmarkByName("des");
  const auto compiled = codegen::compileSource(bench.source);
  Analyzer analyzer(compiled, bench.rootFunction);
  for (const auto& c : bench.constraints) {
    analyzer.addConstraint(c.text, c.scope);
  }
  const Estimate direct = analyzer.estimate();
  int directRowsRemoved = 0;
  for (const SetSolveRecord& rec : direct.setRecords) {
    directRowsRemoved += rec.worst.stats.presolveRowsRemoved;
  }

  AnalysisService service;
  AnalysisRequest request;
  request.lpInput = true;
  request.source = analyzer.exportWorstCaseIlp();
  request.cachePolicy = CachePolicy::Bypass;
  const AnalysisResult presolved = service.analyze(request);
  request.control.presolve = false;
  const AnalysisResult unpresolved = service.analyze(request);
  EXPECT_EQ(presolved.estimate.bound.hi, direct.bound.hi);
  EXPECT_EQ(unpresolved.estimate.bound.hi, direct.bound.hi);
  // The export holds the worst-case ILPs only, so the MiniC route's
  // worst side is the figure to match.
  EXPECT_GT(directRowsRemoved, 0);
  EXPECT_EQ(presolved.estimate.stats.presolveRowsRemoved, directRowsRemoved);
  EXPECT_EQ(unpresolved.estimate.stats.presolveRowsRemoved, 0);
  EXPECT_GT(unpresolved.estimate.stats.totalPivots, 0);
  int recordRowsRemoved = 0;
  for (const SetSolveRecord& rec : presolved.estimate.setRecords) {
    recordRowsRemoved += rec.worst.stats.presolveRowsRemoved;
  }
  EXPECT_EQ(recordRowsRemoved, directRowsRemoved);
}

TEST(AnalysisService, LpInputRejectsBenchmarkAndConstraints) {
  AnalysisService service;
  AnalysisRequest request;
  request.lpInput = true;
  request.source = "max: x0; x0 <= 1;";
  request.constraints.push_back({"x0 = 1", ""});
  EXPECT_THROW((void)service.analyze(request), Error);
}

TEST(AnalysisService, DegradedResultIsNeverAdmitted) {
  // A deadline that has already expired degrades every set; the result
  // must not poison the cache, and the next request re-solves.
  AnalysisService service;
  AnalysisRequest request;
  request.source = kLoop;
  request.root = "f";
  request.control.deadline = std::chrono::milliseconds(-1);
  const AnalysisResult degraded = service.analyze(request);
  EXPECT_TRUE(degraded.estimate.timedOut);
  EXPECT_EQ(service.cache().boundEntries(), 0u);

  AnalysisRequest clean;
  clean.source = kLoop;
  clean.root = "f";
  const AnalysisResult solved = service.analyze(clean);
  EXPECT_FALSE(solved.cacheHit);
  EXPECT_FALSE(solved.estimate.timedOut);
}

// --- Runs without a cache, and the request memo. --------------------

// Two roots with the same shape, so a fig2 constraint fits either.
constexpr const char* kTwoRoots =
    "int q;\nint r;\n"
    "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }\n"
    "void g(int p) { if (p) { q = 3; } else { q = 4; } r = q; }";

// `x0 <= 3 * @P` is redundant for P in [1, 3]: the entry block runs
// once, so the formula prices every point to the direct bound.
AnalysisRequest parametricRequest() {
  AnalysisRequest request;
  request.source = kLoop;
  request.root = "f";
  request.constraints.push_back({"x0 <= 3 * @P", ""});
  request.parameters = {{"P", 1, 3}};
  return request;
}

std::string lpExportOf(const char* source, const char* root) {
  const auto compiled = codegen::compileSource(source);
  return Analyzer(compiled, root).exportWorstCaseIlp();
}

TEST(AnalysisService, LpInputHonoursTheMemoryCeiling) {
  // The per-request memory quota applies to LP input as it does to
  // MiniC: an over-ceiling system fails its set before any tableau is
  // built, the estimate is unsound, and the cache does not admit it.
  AnalysisService service;
  AnalysisRequest request;
  request.lpInput = true;
  request.source = lpExportOf(kLoop, "f");
  request.control.maxMemoryBytes = 1024;
  const AnalysisResult result = service.analyze(request);
  ASSERT_EQ(result.estimate.setRecords.size(), 1u);
  const SetSolveRecord& record = result.estimate.setRecords[0];
  EXPECT_EQ(record.verdict, SetVerdict::Failed);
  EXPECT_EQ(record.issue, ErrorCode::MemoryCeiling);
  EXPECT_FALSE(record.worst.solved);
  EXPECT_FALSE(result.estimate.sound());
  ASSERT_EQ(result.estimate.issues.size(), 1u);
  EXPECT_EQ(result.estimate.issues[0].phase, "set");
  EXPECT_EQ(service.cache().boundEntries(), 0u);
  EXPECT_EQ(service.cache().stats().rejectedInserts, 1);
}

TEST(AnalysisService, LpInputDeadlineConsultsTheFaultSeam) {
  // A DeadlineClock fault expires the deadline of an LP-input request
  // just as it does inside Analyzer::estimate.
  support::FaultPlan plan;
  plan.deadlineClockRate = 1.0;
  support::FaultInjector injector{plan};
  support::ScopedFaultInjector install(&injector);
  AnalysisService service;
  AnalysisRequest request;
  request.lpInput = true;
  request.source = lpExportOf(kLoop, "f");
  const AnalysisResult result = service.analyze(request);
  ASSERT_EQ(result.estimate.setRecords.size(), 1u);
  EXPECT_EQ(result.estimate.setRecords[0].issue, ErrorCode::DeadlineExpired);
  EXPECT_TRUE(result.estimate.timedOut);
  EXPECT_FALSE(result.estimate.sound());
  EXPECT_GT(injector.injected(support::FaultSite::DeadlineClock), 0);
}

TEST(AnalysisService, LpInputNodeBudgetIsNamedAsSuch) {
  // The root relaxation is fractional (x + y = 1.5), so one node cannot
  // finish the search.
  AnalysisService service;
  AnalysisRequest request;
  request.lpInput = true;
  request.source =
      "Maximize\n obj: x + y\nSubject To\n c1: 2 x + 2 y <= 3\n"
      "General\n x\n y\nEnd\n";
  request.control.maxNodes = 1;
  const AnalysisResult result = service.analyze(request);
  ASSERT_EQ(result.estimate.setRecords.size(), 1u);
  EXPECT_EQ(result.estimate.setRecords[0].issue,
            ErrorCode::NodeBudgetExhausted);
  EXPECT_FALSE(result.estimate.timedOut);
  EXPECT_FALSE(result.estimate.sound());
}

/// Section tags of a snapshot file, in order, after checking its magic
/// and format version.
std::vector<std::uint32_t> snapshotSections(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const auto u32At = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i]))
           << (8 * i);
    }
    return v;
  };
  EXPECT_EQ(bytes.substr(0, 5), "CSNAP");
  EXPECT_EQ(u32At(5), 4u) << "snapshot format version";
  std::vector<std::uint32_t> tags;
  // Each section: tag, entry count, payload length, payload, CRC32.
  for (std::size_t at = 9; at + 12 <= bytes.size();) {
    tags.push_back(u32At(at));
    at += 12 + u32At(at + 8) + 4;
  }
  return tags;
}

TEST(AnalysisService, RunsWithoutACacheComputeNoDigest) {
  // Only a cache reads the system digests.  A Bypass request and a
  // cache-less service answer the same bound with empty digests and no
  // digest stage; a cached request's digests are the analyzer's own.
  const auto compiled = codegen::compileSource(kFig2);
  Analyzer analyzer(compiled, "f");
  analyzer.addConstraint("x1 = 0 | x2 = 0");
  const Analyzer::SystemDigests direct = analyzer.systemDigests();

  AnalysisService cached;
  const AnalysisResult stored = cached.analyze(fig2Request());
  EXPECT_EQ(stored.fullDigest, direct.full);
  EXPECT_EQ(stored.structuralDigest, direct.structural);
  AnalysisRequest lp;
  lp.lpInput = true;
  lp.source = lpExportOf(kLoop, "f");
  const AnalysisResult storedLp = cached.analyze(lp);
  EXPECT_FALSE(storedLp.fullDigest.empty());

  AnalysisServiceOptions cacheless;
  cacheless.cache.capacity = 0;
  AnalysisService disabled(cacheless);
  const SolveCacheStats before = cached.cache().stats();
  struct Case {
    const char* label;
    const AnalysisService* service;
    AnalysisRequest request;
    const AnalysisResult* reference;
  };
  AnalysisRequest bypass = fig2Request();
  bypass.cachePolicy = CachePolicy::Bypass;
  AnalysisRequest lpBypass = lp;
  lpBypass.cachePolicy = CachePolicy::Bypass;
  const Case cases[] = {{"minic bypass", &cached, bypass, &stored},
                        {"lp bypass", &cached, lpBypass, &storedLp},
                        {"minic cache-less", &disabled, fig2Request(), &stored},
                        {"lp cache-less", &disabled, lp, &storedLp}};
  for (const Case& c : cases) {
    obs::RequestTelemetry telemetry;
    const AnalysisResult result = c.service->analyze(c.request, &telemetry);
    EXPECT_FALSE(result.cacheHit) << c.label;
    EXPECT_EQ(result.estimate.bound, c.reference->estimate.bound) << c.label;
    EXPECT_TRUE(result.fullDigest.empty()) << c.label;
    EXPECT_TRUE(result.structuralDigest.empty()) << c.label;
    EXPECT_EQ(telemetry.stageMicros(obs::RequestStage::Digest), 0) << c.label;
  }
  // Bypass never touched the memo, nor any store.
  const SolveCacheStats after = cached.cache().stats();
  EXPECT_EQ(after.requestHits + after.requestMisses,
            before.requestHits + before.requestMisses);
  EXPECT_EQ(after.boundHits + after.boundMisses,
            before.boundHits + before.boundMisses);

  // A parametric request keeps its digest: the CLI prints it.
  AnalysisRequest parametric = parametricRequest();
  parametric.cachePolicy = CachePolicy::Bypass;
  EXPECT_FALSE(cached.analyze(parametric).fullDigest.empty());
  EXPECT_FALSE(disabled.analyze(parametricRequest()).fullDigest.empty());
}

TEST(AnalysisService, RequestMemoAnswersARepeatWithoutTheFrontEnd) {
  AnalysisService service;
  const AnalysisResult cold = service.analyze(fig2Request());
  obs::RequestTelemetry telemetry;
  const AnalysisResult repeat = service.analyze(fig2Request(), &telemetry);
  EXPECT_TRUE(repeat.cacheHit);
  EXPECT_EQ(repeat.estimate.bound, cold.estimate.bound);
  EXPECT_EQ(repeat.fullDigest, cold.fullDigest);
  EXPECT_EQ(repeat.structuralDigest, cold.structuralDigest);
  EXPECT_EQ(telemetry.stageMicros(obs::RequestStage::Frontend), 0);
  EXPECT_EQ(telemetry.stageMicros(obs::RequestStage::Cfg), 0);
  EXPECT_EQ(telemetry.stageMicros(obs::RequestStage::Solve), 0);
  const SolveCacheStats stats = service.cache().stats();
  EXPECT_EQ(stats.requestMisses, 1);
  EXPECT_EQ(stats.requestHits, 1);
  // The memo hit is a bound hit too, so hit ratios keep their meaning.
  EXPECT_EQ(stats.boundMisses, 1);
  EXPECT_EQ(stats.boundHits, 1);
}

TEST(AnalysisService, RequestMemoKeyCoversEveryInputTheAnalyzerSees) {
  // Each input changed alone misses the memo; the answer is then the
  // digest path's, which equals a cold solve of the changed request.
  const auto expectMemoMiss = [](const AnalysisRequest& base,
                                 const AnalysisRequest& changed,
                                 const std::string& what) {
    AnalysisService service;
    (void)service.analyze(base);
    (void)service.analyze(base);
    const SolveCacheStats before = service.cache().stats();
    ASSERT_EQ(before.requestHits, 1) << what;
    const AnalysisResult result = service.analyze(changed);
    const SolveCacheStats after = service.cache().stats();
    EXPECT_EQ(after.requestHits, before.requestHits) << what;
    EXPECT_EQ(after.requestMisses, before.requestMisses + 1) << what;
    AnalysisService fresh;
    EXPECT_EQ(result.estimate.bound, fresh.analyze(changed).estimate.bound)
        << what;
    // The changed request memoizes under its own key.
    (void)service.analyze(changed);
    EXPECT_EQ(service.cache().stats().requestHits, before.requestHits + 1)
        << what;
  };

  AnalysisRequest base;
  base.source = kTwoRoots;
  base.root = "f";
  base.constraints.push_back({"x1 = 0 | x2 = 0", ""});

  AnalysisRequest changed = base;
  changed.source += "\n";
  expectMemoMiss(base, changed, "source");
  changed = base;
  changed.root = "g";
  expectMemoMiss(base, changed, "root");
  changed = base;
  changed.constraints[0].text = "x2 = 0 | x1 = 0";
  expectMemoMiss(base, changed, "constraint text");
  changed = base;
  changed.constraints[0].scope = "f";
  expectMemoMiss(base, changed, "constraint scope");
  changed = base;
  changed.constraints.push_back({"x1 = 0 | x2 = 0", ""});
  expectMemoMiss(base, changed, "constraint count");
  changed = base;
  changed.cacheMode = CacheMode::FirstIterationSplit;
  expectMemoMiss(base, changed, "cache mode");

  const AnalysisRequest parametric = parametricRequest();
  changed = parametric;
  changed.parameters[0].hi = 4;
  expectMemoMiss(parametric, changed, "parameter range");
  changed = parametric;
  changed.parameters[0].name = "Q";
  changed.constraints[0].text = "x0 <= 3 * @Q";
  expectMemoMiss(parametric, changed, "parameter name");

  // The LP flag: the same text read as MiniC must not be answered with
  // the LP system's bound.
  AnalysisRequest lp;
  lp.lpInput = true;
  lp.source = lpExportOf(kLoop, "f");
  AnalysisService service;
  (void)service.analyze(lp);
  AnalysisRequest asMiniC = lp;
  asMiniC.lpInput = false;
  EXPECT_THROW((void)service.analyze(asMiniC), Error);
  EXPECT_EQ(service.cache().stats().requestHits, 0);
  EXPECT_EQ(service.cache().stats().requestMisses, 2);
}

TEST(AnalysisService, RequestMemoIgnoresLabelPolicyAndSolveControl) {
  // What the system digest leaves out, the request key leaves out too.
  AnalysisService service;
  const AnalysisResult cold = service.analyze(fig2Request());
  AnalysisRequest labelled = fig2Request();
  labelled.label = "renamed";
  AnalysisRequest jobs = fig2Request();
  jobs.control.threads = 2;
  AnalysisRequest deadline = fig2Request();
  deadline.control.deadline = std::chrono::milliseconds(60000);
  AnalysisRequest readOnly = fig2Request();
  readOnly.cachePolicy = CachePolicy::ReadOnly;
  std::int64_t hits = 0;
  for (const AnalysisRequest* request :
       {&labelled, &jobs, &deadline, &readOnly}) {
    obs::RequestTelemetry telemetry;
    const AnalysisResult result = service.analyze(*request, &telemetry);
    EXPECT_TRUE(result.cacheHit) << request->label;
    EXPECT_EQ(result.estimate.bound, cold.estimate.bound);
    EXPECT_EQ(telemetry.stageMicros(obs::RequestStage::Frontend), 0);
    EXPECT_EQ(service.cache().stats().requestHits, ++hits);
  }
  // The label is the request's own, not the memoized one's.
  EXPECT_EQ(service.analyze(labelled).program, "renamed");
}

TEST(AnalysisService, RequestMemoMissesARefinedRequestAfterARepeat) {
  AnalysisService service;
  (void)service.analyze(fig2Request());
  ASSERT_TRUE(service.analyze(fig2Request()).cacheHit);
  AnalysisRequest refined = fig2Request();
  refined.constraints.push_back({"x1 = 1", ""});
  const AnalysisResult result = service.analyze(refined);
  EXPECT_FALSE(result.cacheHit);
  EXPECT_EQ(service.cache().stats().requestHits, 1);
  AnalysisService fresh;
  const AnalysisResult cold = fresh.analyze(refined);
  EXPECT_EQ(result.estimate.bound, cold.estimate.bound);
  EXPECT_EQ(result.fullDigest, cold.fullDigest);
}

TEST(AnalysisService, RequestMemoFallsThroughWhenItsBoundWasEvicted) {
  // Two entries per store.  A and B fill both stores; an analyzeWith()
  // insert (which memoizes no request) then evicts A's bound while A's
  // memo entry lives.  The repeat of A must solve, not hit.
  AnalysisServiceOptions options;
  options.cache.capacity = 2;
  AnalysisService service(options);
  const AnalysisRequest a = fig2Request();
  AnalysisRequest b;
  b.source = kLoop;
  b.root = "f";
  const AnalysisResult coldA = service.analyze(a);
  (void)service.analyze(b);
  const auto compiled = codegen::compileSource(kFig2);
  Analyzer c(compiled, "f");
  c.addConstraint("x1 = 1");
  ASSERT_FALSE(service.analyzeWith(c, AnalysisRequest{}).cacheHit);
  ASSERT_EQ(service.cache().requestEntries(), 2u);

  const SolveCacheStats before = service.cache().stats();
  const AnalysisResult repeat = service.analyze(a);
  EXPECT_FALSE(repeat.cacheHit);
  EXPECT_GT(repeat.estimate.stats.ilpSolves, 0);
  EXPECT_EQ(repeat.estimate.bound, coldA.estimate.bound);
  EXPECT_EQ(repeat.fullDigest, coldA.fullDigest);
  const SolveCacheStats after = service.cache().stats();
  EXPECT_EQ(after.requestHits, before.requestHits);
  EXPECT_EQ(after.requestMisses, before.requestMisses + 1);
  EXPECT_EQ(after.boundMisses, before.boundMisses + 1);
  // Solved and admitted again, A's next repeat is a memo hit.
  EXPECT_TRUE(service.analyze(a).cacheHit);
  EXPECT_EQ(service.cache().stats().requestHits, before.requestHits + 1);
}

TEST(AnalysisService, ClearAndRestoreEmptyTheRequestMemo) {
  const std::string snapshot = test_util::uniqueTempPath("memo.csnap");
  AnalysisService service;
  (void)service.analyze(fig2Request());
  std::string error;
  ASSERT_TRUE(service.cache().save(snapshot, &error)) << error;
  ASSERT_EQ(service.cache().requestEntries(), 1u);
  service.cache().clear();
  EXPECT_EQ(service.cache().requestEntries(), 0u);
  EXPECT_FALSE(service.analyze(fig2Request()).cacheHit);
  ASSERT_EQ(service.cache().requestEntries(), 1u);

  // restore() brings the bound back but not the memo: the repeat takes
  // the digest path once, and memoizes the request again.
  const SnapshotRestoreReport report = service.cache().restore(snapshot);
  EXPECT_EQ(report.bounds, 1u);
  EXPECT_EQ(service.cache().requestEntries(), 0u);
  const SolveCacheStats before = service.cache().stats();
  EXPECT_TRUE(service.analyze(fig2Request()).cacheHit);
  SolveCacheStats after = service.cache().stats();
  EXPECT_EQ(after.requestMisses, before.requestMisses + 1);
  EXPECT_EQ(after.boundHits, before.boundHits + 1);
  EXPECT_TRUE(service.analyze(fig2Request()).cacheHit);
  after = service.cache().stats();
  EXPECT_EQ(after.requestHits, before.requestHits + 1);
  std::remove(snapshot.c_str());
}

TEST(AnalysisService, RequestMemoIsNeverPersisted) {
  // Memo hits and records append nothing to the journal, and the
  // snapshot keeps today's version and sections: bounds, formulas, end.
  const std::string snapshot = test_util::uniqueTempPath("memo.csnap");
  AnalysisServiceOptions options;
  options.cache.journalPath = snapshot + ".journal";
  std::remove(options.cache.journalPath.c_str());
  AnalysisService service(options);
  (void)service.analyze(fig2Request());
  (void)service.analyze(parametricRequest());
  const auto journalBytes = [&] {
    std::ifstream in(options.cache.journalPath, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string journal = journalBytes();
  ASSERT_FALSE(journal.empty());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(service.analyze(fig2Request()).cacheHit);
    ASSERT_TRUE(service.analyze(parametricRequest()).cacheHit);
  }
  EXPECT_EQ(service.cache().stats().requestHits, 4);
  EXPECT_EQ(journalBytes(), journal);

  std::string error;
  ASSERT_TRUE(service.cache().save(snapshot, &error)) << error;
  EXPECT_EQ(snapshotSections(snapshot),
            (std::vector<std::uint32_t>{1, 3, 0}));
  std::remove(snapshot.c_str());
  std::remove(options.cache.journalPath.c_str());
}

TEST(AnalysisService, RequestMemoHitEqualsTheDigestPathHit) {
  // For a benchmark, an LP and a parametric request in every cache
  // mode: after restore() (which empties the memo) the repeat is a
  // digest-path hit; the next repeat is a memo hit.  Apart from the wall
  // time, the two results and their reports are identical.
  const std::string snapshot = test_util::uniqueTempPath("memo.csnap");
  for (const CacheMode mode :
       {CacheMode::AllMiss, CacheMode::FirstIterationSplit,
        CacheMode::ConflictGraph}) {
    AnalysisRequest benchmark;
    benchmark.benchmark = "piksrt";
    AnalysisRequest lp;
    lp.lpInput = true;
    lp.source = lpExportOf(kLoop, "f");
    for (AnalysisRequest request :
         {benchmark, lp, parametricRequest()}) {
      request.cacheMode = mode;
      const std::string label = std::string(cacheModeStr(mode)) + " " +
                                (request.lpInput            ? "lp"
                                 : request.benchmark.empty() ? "parametric"
                                                             : "benchmark");
      AnalysisServiceOptions options;
      options.benchmarkResolver = suite::benchmarkResolver();
      AnalysisService service(options);
      ASSERT_FALSE(service.analyze(request).cacheHit) << label;
      std::string error;
      ASSERT_TRUE(service.cache().save(snapshot, &error)) << error;
      (void)service.cache().restore(snapshot);

      obs::RequestTelemetry digestTelemetry;
      const AnalysisResult viaDigest =
          service.analyze(request, &digestTelemetry);
      obs::RequestTelemetry memoTelemetry;
      const AnalysisResult viaMemo = service.analyze(request, &memoTelemetry);
      const SolveCacheStats stats = service.cache().stats();
      EXPECT_EQ(stats.requestHits, 1) << label;
      EXPECT_EQ(stats.requestMisses, 2) << label;

      ASSERT_TRUE(viaDigest.cacheHit) << label;
      ASSERT_TRUE(viaMemo.cacheHit) << label;
      EXPECT_EQ(viaMemo.program, viaDigest.program) << label;
      EXPECT_EQ(viaMemo.fullDigest, viaDigest.fullDigest) << label;
      EXPECT_EQ(viaMemo.structuralDigest, viaDigest.structuralDigest)
          << label;
      EXPECT_EQ(viaMemo.estimate.bound, viaDigest.estimate.bound) << label;
      EXPECT_EQ(viaMemo.solveMicros, viaDigest.solveMicros) << label;
      ASSERT_EQ(viaMemo.formula.has_value(), viaDigest.formula.has_value())
          << label;
      if (viaMemo.formula) {
        EXPECT_EQ(viaMemo.formula->json(), viaDigest.formula->json())
            << label;
      }
      EXPECT_EQ(obs::reportJson(viaMemo.program, viaMemo.estimate, nullptr),
                obs::reportJson(viaDigest.program, viaDigest.estimate,
                                nullptr))
          << label;
      for (const obs::RequestStage stage :
           {obs::RequestStage::Frontend, obs::RequestStage::Cfg,
            obs::RequestStage::Solve}) {
        EXPECT_EQ(memoTelemetry.stageMicros(stage), 0)
            << label << " " << obs::requestStageStr(stage);
      }
    }
  }
  std::remove(snapshot.c_str());
}

}  // namespace
}  // namespace cinderella::ipet
