// Golden presolve output: a hash of everything lp::Reduction::reduce
// produces — the reduced rows and objective, the variable maps, the
// restore stack and the stats — pinned for the root systems the
// analyzer solves (worst-case ILP, best-case ILP, zero-objective
// feasibility probe) of every Table I program in every cache mode, and
// of seeded fuzz programs.
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
    i64(r.stats_.rowsRemoved);
    i64(r.stats_.colsFixed);
    i64(r.stats_.substitutions);
    i64(r.stats_.propagationRounds);
    ints(r.varMap_);
    ints(r.reducedVars_);
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
    if (!r.infeasible_ &&
        static_cast<int>(r.varMap_.size()) == r.origVars_) {
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
    {"check_data/all-miss", 0xbcb7cf7fdd1624deULL},
    {"check_data/first-iteration-split", 0xacde073513dfb14aULL},
    {"check_data/conflict-graph", 0xba4cea95fa0f124eULL},
    {"fft/all-miss", 0x4f1af236240d0f9eULL},
    {"fft/first-iteration-split", 0x4f6ce03d4d95302cULL},
    {"fft/conflict-graph", 0x2647a51267f229a8ULL},
    {"piksrt/all-miss", 0xef0e1ef95f844998ULL},
    {"piksrt/first-iteration-split", 0xe04ca5245f6c2b3cULL},
    {"piksrt/conflict-graph", 0x48c9ce665e6db8feULL},
    {"des/all-miss", 0x6bd8fa4da6966b70ULL},
    {"des/first-iteration-split", 0x7fee9c1063f8f4adULL},
    {"des/conflict-graph", 0xb3ee090424e45f5dULL},
    {"line/all-miss", 0x243d0968a6f0c839ULL},
    {"line/first-iteration-split", 0xee015872b4fa74bbULL},
    {"line/conflict-graph", 0x5bbe36a10b75afcaULL},
    {"circle/all-miss", 0x6a4a8bf0f26d28e7ULL},
    {"circle/first-iteration-split", 0x41df848e7adfdfeeULL},
    {"circle/conflict-graph", 0x55831bb448cea0ffULL},
    {"jpeg_fdct_islow/all-miss", 0x2ca21e5065fefaacULL},
    {"jpeg_fdct_islow/first-iteration-split", 0x2ca21e5065fefaacULL},
    {"jpeg_fdct_islow/conflict-graph", 0x7a64f21a8ef83cf3ULL},
    {"jpeg_idct_islow/all-miss", 0x580863f969a85d2bULL},
    {"jpeg_idct_islow/first-iteration-split", 0x580863f969a85d2bULL},
    {"jpeg_idct_islow/conflict-graph", 0x9cad17d22898163dULL},
    {"recon/all-miss", 0x5d9d38fa6566a28cULL},
    {"recon/first-iteration-split", 0xe67ca73e4d41b7a2ULL},
    {"recon/conflict-graph", 0x2c79493bd5e79011ULL},
    {"fullsearch/all-miss", 0xa45a9b95ceb0b2f2ULL},
    {"fullsearch/first-iteration-split", 0x66221a8ccd04b155ULL},
    {"fullsearch/conflict-graph", 0x5617cb1ff514e896ULL},
    {"whetstone/all-miss", 0x71bdd12fdb01c900ULL},
    {"whetstone/first-iteration-split", 0x0edd40ebb29967a4ULL},
    {"whetstone/conflict-graph", 0xe612560f2ac56f41ULL},
    {"dhry/all-miss", 0x0a550b8fb99a01fbULL},
    {"dhry/first-iteration-split", 0x0f930a46d6282d06ULL},
    {"dhry/conflict-graph", 0x4b3f7bafaa7c1a93ULL},
    {"matgen/all-miss", 0xa0fb951b4a3ef94eULL},
    {"matgen/first-iteration-split", 0x7e5818db35d73fb2ULL},
    {"matgen/conflict-graph", 0xc34f61e11b3037bdULL},
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
    {"seed 1", 0x84c377be6bc0f9a0ULL},
    {"seed 2", 0x5760ea4b13e3f702ULL},
    {"seed 3", 0xf26e08f80a0ba6d7ULL},
    {"seed 4", 0x98849b2d1be138a6ULL},
    {"seed 5", 0xa8b24e329709d060ULL},
    {"seed 6", 0x5bd3c2cc2abe8e8fULL},
    {"seed 7", 0xe0d85094f8b249e6ULL},
    {"seed 8", 0x759fc9dfa2bb9fa3ULL},
    {"seed 9", 0x5e765da88baa5956ULL},
    {"seed 10", 0xdd60f5d776f399b3ULL},
    {"seed 11", 0xa28d371f55a310a3ULL},
    {"seed 12", 0x4c9042ce5efb1380ULL},
    {"seed 13", 0xcdd4108980beb264ULL},
    {"seed 14", 0x6fdbb2e5af5f5a25ULL},
    {"seed 15", 0x500deb9523cd7cd0ULL},
    {"seed 16", 0xfb6c6ab9eec1406aULL},
    {"seed 17", 0x2c112c75426c18a4ULL},
    {"seed 18", 0xf1cd1f01c5830075ULL},
    {"seed 19", 0xf1fb7eac54efbdd1ULL},
    {"seed 20", 0x8651140fd25c7f85ULL},
    {"seed 21", 0x667949f4c9ff97f0ULL},
    {"seed 22", 0x0a6262889a4882eeULL},
    {"seed 23", 0x65ed8c722950f500ULL},
    {"seed 24", 0x4735a4df10f50ce4ULL},
    {"seed 25", 0x2fbc6f0c3dd4f501ULL},
    {"seed 26", 0xa212cb51078bd3acULL},
    {"seed 27", 0x576103ed123f0af4ULL},
    {"seed 28", 0xa9eacf2621a73dfaULL},
    {"seed 29", 0xa3634885f4436790ULL},
    {"seed 30", 0xbd6572531b425b1cULL},
    {"seed 31", 0xcdf52414609a89a7ULL},
    {"seed 32", 0xef20cc6b71d54e08ULL},
    {"seed 33", 0x113863a0b80d7449ULL},
    {"seed 34", 0x120cdaeb0828ac13ULL},
    {"seed 35", 0x8488b52a1f806c8aULL},
    {"seed 36", 0x98b18c99fb2ee0c3ULL},
    {"seed 37", 0x49b0c0cdfc01d628ULL},
    {"seed 38", 0xc3dc2b9d164ef5cbULL},
    {"seed 39", 0x9fb985d3a87558c4ULL},
    {"seed 40", 0x2035c0ad81ef848fULL},
    {"seed 41", 0xa5099e2557a375cdULL},
    {"seed 42", 0x06af66e96ba454eaULL},
    {"seed 43", 0x209b99743884b47aULL},
    {"seed 44", 0xdee2b56c8910345cULL},
    {"seed 45", 0x6ca2111ce6b225d9ULL},
    {"seed 46", 0xbc31f95db6a2ef38ULL},
    {"seed 47", 0xb290155eef4ce6faULL},
    {"seed 48", 0xdec77caf763dffb2ULL},
    {"seed 49", 0xf48702190aefff55ULL},
    {"seed 50", 0x967629d64c99a7f8ULL},
    {"seed 51", 0x1c31ddd08e0126ebULL},
    {"seed 52", 0x349893dc2c0d35edULL},
    {"seed 53", 0x7205066e95465169ULL},
    {"seed 54", 0x678d624994e29632ULL},
    {"seed 55", 0xc39beb84ebbc3d30ULL},
    {"seed 56", 0xde50ded1c9013643ULL},
    {"seed 57", 0xabda993976acda0fULL},
    {"seed 58", 0xadf3223d1157a9b3ULL},
    {"seed 59", 0x7dccb418782903f2ULL},
    {"seed 60", 0xee87993a86127514ULL},
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
