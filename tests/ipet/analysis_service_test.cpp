// The unified AnalysisRequest -> AnalysisResult API and its caching
// semantics: warm-cache answers are bit-identical to cold solves across
// every cache mode, cache policies behave as documented, LP-format
// input closes the paper's off-the-shelf-ILP loop, and benchmark-name
// resolution goes through the injected ProgramResolver seam.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analysis.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"

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
    directRowsRemoved += rec.worst.presolveRowsRemoved;
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
    recordRowsRemoved += rec.worst.presolveRowsRemoved;
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

}  // namespace
}  // namespace cinderella::ipet
