// Golden presolve output: a hash of everything lp::Reduction::reduce
// produces — the reduced rows and objective, the variable and row maps,
// the restore stack, the basic column of every removed row and the
// stats — pinned for the root systems the analyzer solves (worst-case
// ILP, best-case ILP, zero-objective feasibility probe) of every Table I
// program in every cache mode, and of seeded fuzz programs.
//
// A change to the reduction engine that is meant to be a pure speed-up
// must keep every hash.  A deliberate change to the reductions re-pins
// them; each failure message prints the new value.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/fuzz/generator.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/lp/presolve.hpp"
#include "cinderella/suite/suite.hpp"
#include "test_util/root_systems.hpp"

namespace cinderella::lp {

/// FNV-1a over a canonical encoding of every Reduction member.
struct ReductionInspector : test_util::Fnv {
  void add(const Reduction& r) {
    i64(r.infeasible_);
    i64(r.origVars_);
    i64(r.origRows_);
    i64(r.stats_.rowsRemoved);
    i64(r.stats_.colsFixed);
    i64(r.stats_.substitutions);
    i64(r.stats_.propagationRounds);
    ints(r.varMap_);
    ints(r.reducedVars_);
    ints(r.rowMap_);
    ints(r.survivingRows_);
    ints(r.removedRowBasic_);
    u64(r.origRel_.size());
    for (const Relation rel : r.origRel_) i64(static_cast<int>(rel));
    u64(r.restores_.size());
    for (const Reduction::Restore& restore : r.restores_) {
      i64(restore.var);
      f64(restore.constant);
      u64(restore.terms.size());
      for (const Term& t : restore.terms) {
        i64(t.var);
        f64(t.coeff);
      }
    }
    const Problem& p = r.reduced_;
    i64(p.numVars());
    for (int v = 0; v < p.numVars(); ++v) str(p.varName(v));
    i64(static_cast<int>(p.sense()));
    expr(p.objective());
    u64(p.constraints().size());
    for (const Constraint& c : p.constraints()) {
      i64(static_cast<int>(c.rel));
      f64(c.rhs);
      expr(c.expr);
    }
  }

  /// `r` re-targeted to `problem` (same rows, any objective): the
  /// reduced objective replayed through r's substitutions and fixes.
  /// An infeasible or overflow-abandoned reduction never assembled a
  /// reduced problem, for any objective.
  static Reduction retarget(const Reduction& r, const Problem& problem) {
    Reduction out = r;
    if (!r.infeasible_ && static_cast<int>(r.rowMap_.size()) == r.origRows_) {
      out.reduced_.setObjective(r.reducedObjective(problem.objective()),
                                problem.sense());
    }
    return out;
  }
};

namespace {

using test_util::Golden;
using test_util::Hashes;
using test_util::kCacheModes;

/// Folds the worst-case, best-case and probe reductions of every
/// constraint set of `analyzer` into `hash`.
void hashRootSystems(const ipet::Analyzer& analyzer, ReductionInspector* hash) {
  const auto best = test_util::bestCosts(analyzer);
  std::vector<Problem> systems = test_util::exportedSystems(analyzer);
  EXPECT_FALSE(systems.empty());
  for (Problem& p : systems) {
    hash->add(Reduction::reduce(p, SimplexOptions{}));
    LinearExpr bestObj = test_util::bestObjective(p, best);
    EXPECT_FALSE(bestObj.terms().empty()) << "no block-count variable found";
    p.setObjective(std::move(bestObj), Sense::Minimize);
    hash->add(Reduction::reduce(p, SimplexOptions{}));
    p.setObjective(LinearExpr{}, Sense::Maximize);
    hash->add(Reduction::reduce(p, SimplexOptions{}));
  }
}

/// Reduces every constraint set's rows once, under an objective none of
/// the solves uses, then re-targets that one reduction to the probe
/// (zero), worst-case (max) and best-case (min) objectives through
/// Reduction::reducedObjective: each must equal a fresh reduce() of that
/// problem member for member.
void expectRetargetMatchesReduce(const ipet::Analyzer& analyzer,
                                 const std::string& label) {
  const auto best = test_util::bestCosts(analyzer);
  const std::vector<Problem> systems = test_util::exportedSystems(analyzer);
  for (std::size_t k = 0; k < systems.size(); ++k) {
    const Problem& worst = systems[k];
    Problem other = worst;
    LinearExpr ones;
    for (int v = 0; v < other.numVars(); ++v) ones.add(v, 1.0);
    other.setObjective(std::move(ones), Sense::Maximize);
    const Reduction shared = Reduction::reduce(other, SimplexOptions{});

    Problem probe = worst;
    probe.setObjective(LinearExpr{}, Sense::Maximize);
    Problem bestCase = worst;
    bestCase.setObjective(test_util::bestObjective(worst, best),
                          Sense::Minimize);
    const Problem* const targets[] = {&probe, &worst, &bestCase};
    for (const Problem* q : targets) {
      ReductionInspector fresh;
      fresh.add(Reduction::reduce(*q, SimplexOptions{}));
      ReductionInspector retargeted;
      retargeted.add(ReductionInspector::retarget(shared, *q));
      EXPECT_EQ(retargeted.state, fresh.state)
          << label << " set " << k << " objective "
          << (q == &probe ? "zero" : q == &worst ? "worst" : "best");
    }
  }
}

TEST(PresolveReuse, RetargetEqualsFreshReduceOnTableIRootSystems) {
  for (const suite::Benchmark& bench : suite::allBenchmarks()) {
    const auto compiled = codegen::compileSource(bench.source);
    for (const ipet::CacheMode mode : kCacheModes) {
      ipet::AnalyzerOptions aopt;
      aopt.cacheMode = mode;
      ipet::Analyzer analyzer(compiled, bench.rootFunction, aopt);
      for (const auto& c : bench.constraints) {
        analyzer.addConstraint(c.text, c.scope);
      }
      expectRetargetMatchesReduce(
          analyzer, bench.name + "/" + ipet::cacheModeStr(mode));
    }
  }
}

TEST(PresolveReuse, RetargetEqualsFreshReduceOnSeededFuzzRootSystems) {
  fuzz::GeneratorOptions options;
  options.emitConstraints = true;
  fuzz::ProgramGenerator generator(options);
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const fuzz::GeneratedProgram program = generator.generate(seed);
    const auto compiled = codegen::compileSource(program.source);
    for (const ipet::CacheMode mode : kCacheModes) {
      ipet::AnalyzerOptions aopt;
      aopt.cacheMode = mode;
      ipet::Analyzer analyzer(compiled, program.root, aopt);
      for (const std::string& c : program.constraints) {
        analyzer.addConstraint(c, program.root);
      }
      expectRetargetMatchesReduce(analyzer,
                                  "seed " + std::to_string(seed) + "/" +
                                      ipet::cacheModeStr(mode));
    }
  }
}

// One entry per Table I program and cache mode (every constraint set,
// three systems each).
constexpr Golden kSuiteGolden[] = {
    {"check_data/all-miss", 0x018d7eba8c0be1e8ULL},
    {"check_data/first-iteration-split", 0x7df85905e3db0086ULL},
    {"check_data/conflict-graph", 0x401dd1551b7b345cULL},
    {"fft/all-miss", 0x960803afe4c6ad65ULL},
    {"fft/first-iteration-split", 0xc00101a1bc9676d0ULL},
    {"fft/conflict-graph", 0x810fa7c23afe6f56ULL},
    {"piksrt/all-miss", 0xe493b25297310ea8ULL},
    {"piksrt/first-iteration-split", 0xf1f301f51ad8f309ULL},
    {"piksrt/conflict-graph", 0xd037935efdac6336ULL},
    {"des/all-miss", 0xb8c3926b347d7124ULL},
    {"des/first-iteration-split", 0xb8ed54132946684eULL},
    {"des/conflict-graph", 0x57a9009399a4b910ULL},
    {"line/all-miss", 0xca3e269f25dd82f8ULL},
    {"line/first-iteration-split", 0x20e38f6ad49bc26eULL},
    {"line/conflict-graph", 0x51e18882cfcd53a7ULL},
    {"circle/all-miss", 0xe962096513cc3440ULL},
    {"circle/first-iteration-split", 0xcf77af67bd2ca28aULL},
    {"circle/conflict-graph", 0x34c2c21ff6494a01ULL},
    {"jpeg_fdct_islow/all-miss", 0x4ce70b3af8f0687aULL},
    {"jpeg_fdct_islow/first-iteration-split", 0x4ce70b3af8f0687aULL},
    {"jpeg_fdct_islow/conflict-graph", 0x6e612289dfd5834eULL},
    {"jpeg_idct_islow/all-miss", 0xf0b5904586f64a38ULL},
    {"jpeg_idct_islow/first-iteration-split", 0xf0b5904586f64a38ULL},
    {"jpeg_idct_islow/conflict-graph", 0x35563adfba4dcbb9ULL},
    {"recon/all-miss", 0xd7b5f4ee3ebb3d20ULL},
    {"recon/first-iteration-split", 0x727f22ec562483feULL},
    {"recon/conflict-graph", 0xddab071d9a18f1ecULL},
    {"fullsearch/all-miss", 0x0f29974b7033c107ULL},
    {"fullsearch/first-iteration-split", 0x929d59094e7810d5ULL},
    {"fullsearch/conflict-graph", 0x5912cd1860c0e46dULL},
    {"whetstone/all-miss", 0x9223d68344cb6a0fULL},
    {"whetstone/first-iteration-split", 0x4914213997162626ULL},
    {"whetstone/conflict-graph", 0xb005a246193ffb37ULL},
    {"dhry/all-miss", 0x7e76d4e8b68b3eb3ULL},
    {"dhry/first-iteration-split", 0xc0990316b56f6edaULL},
    {"dhry/conflict-graph", 0x177cc2b250434b29ULL},
    {"matgen/all-miss", 0x516f35e94ef6fb5bULL},
    {"matgen/first-iteration-split", 0xa5f35114c0cbaab9ULL},
    {"matgen/conflict-graph", 0x8834d8bafd7d7011ULL},
};

TEST(PresolveGolden, TableIRootSystemsAcrossCacheModes) {
  Hashes actual;
  for (const suite::Benchmark& bench : suite::allBenchmarks()) {
    const auto compiled = codegen::compileSource(bench.source);
    for (const ipet::CacheMode mode : kCacheModes) {
      ipet::AnalyzerOptions aopt;
      aopt.cacheMode = mode;
      ipet::Analyzer analyzer(compiled, bench.rootFunction, aopt);
      for (const auto& c : bench.constraints) {
        analyzer.addConstraint(c.text, c.scope);
      }
      ReductionInspector hash;
      hashRootSystems(analyzer, &hash);
      actual.emplace_back(bench.name + "/" + ipet::cacheModeStr(mode),
                          hash.state);
    }
  }
  test_util::expectPinned(actual, kSuiteGolden, "reduction output");
}

// One entry per generated program (all three cache modes) with
// redundant functionality constraints on.
constexpr Golden kFuzzGolden[] = {
    {"seed 1", 0x9e81d72df567a5f6ULL},
    {"seed 2", 0x45d5e8a5e4a748a4ULL},
    {"seed 3", 0x5bd45b36a791b2e2ULL},
    {"seed 4", 0x7957ba6c3813c78dULL},
    {"seed 5", 0x8b032f3476aba73dULL},
    {"seed 6", 0xc3835c1c33e8df64ULL},
    {"seed 7", 0xd5403de66c2130b7ULL},
    {"seed 8", 0x73d341abb4447223ULL},
    {"seed 9", 0xc2eaae88d84010fdULL},
    {"seed 10", 0xf6ccf701a1483fa9ULL},
    {"seed 11", 0x4e25c01c04fbf985ULL},
    {"seed 12", 0x03b0743abd36eeccULL},
    {"seed 13", 0x32ec9eb494ec46e0ULL},
    {"seed 14", 0x2670fda585e723bdULL},
    {"seed 15", 0x389efc0029e0843fULL},
    {"seed 16", 0x66dd70e781809fa2ULL},
    {"seed 17", 0x59797bbe43ae7131ULL},
    {"seed 18", 0xf14e9b012ea400f9ULL},
    {"seed 19", 0xc1c9b9bcee0abcfbULL},
    {"seed 20", 0xff3e5f455bdc635aULL},
    {"seed 21", 0x738016f27936d3f9ULL},
    {"seed 22", 0x0cf2f2dcf17452cdULL},
    {"seed 23", 0xec07e50c05025795ULL},
    {"seed 24", 0xe94f0e70dd3b80a7ULL},
    {"seed 25", 0xbc94286f2ab30f6aULL},
    {"seed 26", 0xbc5e7f4e9c8178acULL},
    {"seed 27", 0x216e7c8ff4c2e505ULL},
    {"seed 28", 0x38df0d209e53242dULL},
    {"seed 29", 0x59c1a32f3f4b40ffULL},
    {"seed 30", 0x1204af99a6830ce2ULL},
    {"seed 31", 0xe54fb517e57ba376ULL},
    {"seed 32", 0x54d5bc6a823e484aULL},
    {"seed 33", 0x4393f2e1bc3d9a8fULL},
    {"seed 34", 0xfcb292c05e8a542fULL},
    {"seed 35", 0xcc25ecf3d4dcc8e8ULL},
    {"seed 36", 0x8111c16c046a75ffULL},
    {"seed 37", 0x5c00d84919f0fd02ULL},
    {"seed 38", 0x8de95ce76dff0acdULL},
    {"seed 39", 0x2f011bb682aabe60ULL},
    {"seed 40", 0x76655a3ebe5e6a29ULL},
    {"seed 41", 0x778dffc377ccccfbULL},
    {"seed 42", 0x637061a397620145ULL},
    {"seed 43", 0x32d269d8e352aafcULL},
    {"seed 44", 0x7c50e6ff17f46e70ULL},
    {"seed 45", 0xb8c9b6f2e34916c4ULL},
    {"seed 46", 0xed81866bb2203facULL},
    {"seed 47", 0xdd18d1888dfd4105ULL},
    {"seed 48", 0x6f5cbfa43ece9a47ULL},
    {"seed 49", 0xa46e8121237c7fa4ULL},
    {"seed 50", 0x79e80b019122314bULL},
    {"seed 51", 0x8b05a3f5009c8a68ULL},
    {"seed 52", 0xc0f22c08c3f49800ULL},
    {"seed 53", 0xcfed4ff8148a67bcULL},
    {"seed 54", 0x088e82768b6eb637ULL},
    {"seed 55", 0x3cc1db8f06b5186cULL},
    {"seed 56", 0x0ce5a427bc7b0f1fULL},
    {"seed 57", 0x2924f4e5ca3ead07ULL},
    {"seed 58", 0xfe5a3425a7f1adcbULL},
    {"seed 59", 0x81c145ccd4a1e796ULL},
    {"seed 60", 0x3709c8a3e083effeULL},
};

TEST(PresolveGolden, SeededFuzzRootSystemsAcrossCacheModes) {
  fuzz::GeneratorOptions options;
  options.emitConstraints = true;
  fuzz::ProgramGenerator generator(options);
  Hashes actual;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const fuzz::GeneratedProgram program = generator.generate(seed);
    const auto compiled = codegen::compileSource(program.source);
    ReductionInspector hash;
    for (const ipet::CacheMode mode : kCacheModes) {
      ipet::AnalyzerOptions aopt;
      aopt.cacheMode = mode;
      ipet::Analyzer analyzer(compiled, program.root, aopt);
      for (const std::string& c : program.constraints) {
        analyzer.addConstraint(c, program.root);
      }
      hashRootSystems(analyzer, &hash);
    }
    actual.emplace_back("seed " + std::to_string(seed), hash.state);
  }
  test_util::expectPinned(actual, kFuzzGolden, "reduction output");
}

}  // namespace
}  // namespace cinderella::lp
