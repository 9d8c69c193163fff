// Golden simplex output: a hash of every deterministic number the LP and
// ILP solvers return — status, objective and value bits, pivot counts
// per kind, branch-and-bound nodes — for the exported worst-case and
// best-case ILP of every constraint set, and of every per-set record
// Analyzer::estimate produces, pinned for the Table I programs in every
// cache mode and for the seeded fuzz programs of PresolveGolden.
//
// A change to the simplex, presolve or analyzer that is meant to be a
// pure speed-up must keep every hash.  A deliberate change to pivoting
// or to what the analyzer solves re-pins them; each failure message
// prints the new value.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/fuzz/generator.hpp"
#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/lp/simplex.hpp"
#include "cinderella/suite/suite.hpp"
#include "test_util/root_systems.hpp"

namespace cinderella {
namespace {

using test_util::Golden;
using test_util::Hashes;
using test_util::kCacheModes;

struct SolveHash : test_util::Fnv {
  void add(const lp::Solution& s) {
    i64(static_cast<int>(s.status));
    f64(s.objective);
    doubles(s.values);
    i64(s.pivots);
    i64(s.dualPivots);
    i64(s.installPivots);
    i64(s.devexPivots);
    i64(s.blandRestart);
    i64(s.warmUsed);
    i64(s.warmFailed);
    i64(s.presolve.rowsRemoved);
    i64(s.presolve.colsFixed);
    i64(s.presolve.substitutions);
    i64(s.presolve.propagationRounds);
  }

  void add(const ilp::IlpSolution& s) {
    i64(static_cast<int>(s.status));
    f64(s.objective);
    doubles(s.values);
    i64(s.objectiveExact);
    i64(s.objectiveIsExact);
    i64(s.objectiveSaturated);
    f64(s.relaxationBound);
    i64(s.haveRelaxationBound);
    i64(s.rootBasis.numVars);
    ints(s.rootBasis.basicCol);
    i64(s.haveRootBasis);
    const ilp::IlpStats& st = s.stats;
    for (const int v :
         {st.nodesExpanded, st.lpCalls,
          static_cast<int>(st.firstRelaxationIntegral), st.totalPivots,
          st.checkedPromotions, st.blandRestarts, st.warmStarts,
          st.coldStarts, st.dualPivots, st.installPivots, st.warmFailures,
          st.devexPivots, st.presolveRowsRemoved, st.presolveColsFixed,
          st.presolveSubstitutions, st.presolveRounds}) {
      i64(v);
    }
  }

  void add(const ipet::IlpSolveRecord& r) {
    for (const std::int64_t v :
         {std::int64_t{r.solved}, std::int64_t{r.feasible}, r.objective,
          std::int64_t{r.nodes}, std::int64_t{r.lpCalls},
          std::int64_t{r.pivots}, std::int64_t{r.firstRelaxationIntegral},
          std::int64_t{r.checkedPromotions}, std::int64_t{r.blandRestarts},
          std::int64_t{r.warmStarts}, std::int64_t{r.coldStarts},
          std::int64_t{r.dualPivots}, std::int64_t{r.warmFailures},
          std::int64_t{r.installPivots}, std::int64_t{r.devexPivots},
          std::int64_t{r.presolveRowsRemoved},
          std::int64_t{r.presolveColsFixed},
          std::int64_t{r.presolveSubstitutions},
          std::int64_t{r.presolveRounds}, std::int64_t{r.degraded},
          r.fallbackBound}) {
      i64(v);
    }
  }

  /// Every deterministic field of an estimate (wall-clock fields are
  /// left out).
  void add(const ipet::Estimate& e) {
    i64(e.bound.lo);
    i64(e.bound.hi);
    const ipet::SolveStats& st = e.stats;
    for (const int v :
         {st.constraintSets, st.prunedNullSets, st.ilpSolves, st.lpCalls,
          st.nodesExpanded, static_cast<int>(st.allFirstRelaxationsIntegral),
          st.totalPivots, st.cacheFlowVars, st.cacheFallbackSets,
          st.relaxedSets, st.structuralSets, st.failedSets,
          st.checkedPromotions, st.blandRestarts, st.dedupedSets,
          st.dominatedSets, st.warmStarts, st.coldStarts, st.dualPivots,
          st.warmFailures, st.installPivots, st.seedPivots, st.devexPivots,
          st.presolveRowsRemoved, st.presolveColsFixed,
          st.presolveSubstitutions, st.presolveRounds}) {
      i64(v);
    }
    u64(e.setRecords.size());
    for (const ipet::SetSolveRecord& r : e.setRecords) {
      for (const int v :
           {r.setIndex, r.userConstraints, r.sharedWith,
            static_cast<int>(r.dominated), static_cast<int>(r.pruned),
            r.probePivots, static_cast<int>(r.verdict),
            static_cast<int>(r.issue), r.fallbackPivots}) {
        i64(v);
      }
      add(r.worst);
      add(r.best);
    }
    for (const auto* counts : {&e.worstCounts, &e.bestCounts}) {
      u64(counts->size());
      for (const ipet::BlockCountRow& row : *counts) {
        i64(row.function);
        i64(row.block);
        i64(row.count);
      }
    }
    i64(e.timedOut);
    u64(e.issues.size());
    for (const ipet::SolveIssue& issue : e.issues) {
      i64(issue.setIndex);
      i64(static_cast<int>(issue.code));
      str(issue.phase);
    }
  }
};

/// Folds lp::solve and ilp::solve of the worst-case and best-case ILP of
/// every constraint set of `analyzer` into `hash`.
void hashSolves(const ipet::Analyzer& analyzer, SolveHash* hash) {
  const auto best = test_util::bestCosts(analyzer);
  std::vector<lp::Problem> systems = test_util::exportedSystems(analyzer);
  EXPECT_FALSE(systems.empty());
  for (lp::Problem& p : systems) {
    hash->add(lp::solve(p));
    hash->add(ilp::solve(p));
    p.setObjective(test_util::bestObjective(p, best), lp::Sense::Minimize);
    hash->add(lp::solve(p));
    hash->add(ilp::solve(p));
  }
}

/// Folds the analyzer's own estimate into `hash`, checking first that
/// four worker threads produce the same estimate as one.
void hashEstimate(const ipet::Analyzer& analyzer, SolveHash* hash) {
  ipet::SolveControl control;
  control.threads = 1;
  SolveHash serial;
  serial.add(analyzer.estimate(control));
  control.threads = 4;
  SolveHash parallel;
  parallel.add(analyzer.estimate(control));
  EXPECT_EQ(serial.state, parallel.state) << "estimate differs at 4 threads";
  hash->u64(serial.state);
}

template <typename HashFn>
Hashes suiteHashes(HashFn hashOne) {
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
      SolveHash hash;
      hashOne(analyzer, &hash);
      actual.emplace_back(bench.name + "/" + ipet::cacheModeStr(mode),
                          hash.state);
    }
  }
  return actual;
}

template <typename HashFn>
Hashes fuzzHashes(HashFn hashOne) {
  fuzz::GeneratorOptions options;
  options.emitConstraints = true;
  fuzz::ProgramGenerator generator(options);
  Hashes actual;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const fuzz::GeneratedProgram program = generator.generate(seed);
    const auto compiled = codegen::compileSource(program.source);
    SolveHash hash;
    for (const ipet::CacheMode mode : kCacheModes) {
      ipet::AnalyzerOptions aopt;
      aopt.cacheMode = mode;
      ipet::Analyzer analyzer(compiled, program.root, aopt);
      for (const std::string& c : program.constraints) {
        analyzer.addConstraint(c, program.root);
      }
      hashOne(analyzer, &hash);
    }
    actual.emplace_back("seed " + std::to_string(seed), hash.state);
  }
  return actual;
}

// One entry per Table I program and cache mode: lp::solve and ilp::solve
// of the worst-case and best-case ILP of every constraint set.
constexpr Golden kSuiteSolves[] = {
    {"check_data/all-miss", 0xb985d4eed9768972ULL},
    {"check_data/first-iteration-split", 0x8ea700c25838908fULL},
    {"check_data/conflict-graph", 0xc6bb533579d43206ULL},
    {"fft/all-miss", 0x0ef9565e4231cae7ULL},
    {"fft/first-iteration-split", 0x818df23f8d504b44ULL},
    {"fft/conflict-graph", 0x446e23d96d4f924aULL},
    {"piksrt/all-miss", 0x93a21255e441d9f3ULL},
    {"piksrt/first-iteration-split", 0xe9ac4618c907710bULL},
    {"piksrt/conflict-graph", 0xdc4bd42f762e1854ULL},
    {"des/all-miss", 0xafd4e214eb5ac522ULL},
    {"des/first-iteration-split", 0xf580c141c3770f2fULL},
    {"des/conflict-graph", 0x0372435f3b97af03ULL},
    {"line/all-miss", 0x795a220d8f2a5b11ULL},
    {"line/first-iteration-split", 0x239259e0ce0cec54ULL},
    {"line/conflict-graph", 0xf039e381cf4d44c0ULL},
    {"circle/all-miss", 0x0051a72d7cf36aacULL},
    {"circle/first-iteration-split", 0xb7678b1126f4f880ULL},
    {"circle/conflict-graph", 0x5d57e644e5e49560ULL},
    {"jpeg_fdct_islow/all-miss", 0xe304ae8ff1fe349eULL},
    {"jpeg_fdct_islow/first-iteration-split", 0xe304ae8ff1fe349eULL},
    {"jpeg_fdct_islow/conflict-graph", 0x4112a09c33cb379bULL},
    {"jpeg_idct_islow/all-miss", 0x9c51a9cfb1b7ac7dULL},
    {"jpeg_idct_islow/first-iteration-split", 0x9c51a9cfb1b7ac7dULL},
    {"jpeg_idct_islow/conflict-graph", 0xfd5229e1e9af39f0ULL},
    {"recon/all-miss", 0x30bb6664dcfdbddeULL},
    {"recon/first-iteration-split", 0xec209c2e4655fc8bULL},
    {"recon/conflict-graph", 0xba8729dd8f77923bULL},
    {"fullsearch/all-miss", 0x6df2301a5d16aaa1ULL},
    {"fullsearch/first-iteration-split", 0xcf4a0d59e6ed54f0ULL},
    {"fullsearch/conflict-graph", 0x78bb036139b886e4ULL},
    {"whetstone/all-miss", 0x37ff47991b1d34c4ULL},
    {"whetstone/first-iteration-split", 0xdc977bbbbcb12f14ULL},
    {"whetstone/conflict-graph", 0x153ea1b4c898c50aULL},
    {"dhry/all-miss", 0xaa5713c567511881ULL},
    {"dhry/first-iteration-split", 0x79dfca6b4c33b6fcULL},
    {"dhry/conflict-graph", 0x31be6ed7ab711261ULL},
    {"matgen/all-miss", 0xc1c51407cc9d387cULL},
    {"matgen/first-iteration-split", 0xb6d2d41f5ee5340dULL},
    {"matgen/conflict-graph", 0x7cfaa2f9a8071556ULL},
};

// One entry per generated program (all three cache modes).
constexpr Golden kFuzzSolves[] = {
    {"seed 1", 0xa7d7f50107474e81ULL},
    {"seed 2", 0xbfd7395493daf225ULL},
    {"seed 3", 0xdb745391948d49dfULL},
    {"seed 4", 0x8442c24ca6fdd409ULL},
    {"seed 5", 0xb118db6a8fbd20a5ULL},
    {"seed 6", 0x0ae1fb45b583471aULL},
    {"seed 7", 0x1248db5737a2ba81ULL},
    {"seed 8", 0xce9f2cdb21543ffdULL},
    {"seed 9", 0x4974f31b2c9f3439ULL},
    {"seed 10", 0x7ed63216ab18b049ULL},
    {"seed 11", 0xf796b083bb29b363ULL},
    {"seed 12", 0x6e4bd49b956a27adULL},
    {"seed 13", 0x329a7a442675c61cULL},
    {"seed 14", 0x1e02b33e10fee767ULL},
    {"seed 15", 0xd8afa9612c2070c8ULL},
    {"seed 16", 0x3555b729d33a5976ULL},
    {"seed 17", 0x2dde9b8820334e7aULL},
    {"seed 18", 0x5b7cf80dba76f44dULL},
    {"seed 19", 0xd2e390321c0c6663ULL},
    {"seed 20", 0x510652cf6bbeef7fULL},
    {"seed 21", 0x3966ec2293efe85dULL},
    {"seed 22", 0xe70d7942206b71c5ULL},
    {"seed 23", 0xf79c3caab2041803ULL},
    {"seed 24", 0xef8cfbe01edca31fULL},
    {"seed 25", 0xc9c85a2e5038587aULL},
    {"seed 26", 0x670e751bc6f28d4cULL},
    {"seed 27", 0xf7539114069e9389ULL},
    {"seed 28", 0xa859f5ccb9a862adULL},
    {"seed 29", 0x3e170f74fceba619ULL},
    {"seed 30", 0xf791d533c3143fddULL},
    {"seed 31", 0xa98de576b1550dc3ULL},
    {"seed 32", 0x7ab8e17c30c96952ULL},
    {"seed 33", 0xf493836e34a2e4c1ULL},
    {"seed 34", 0x10b5e84fbff3bc08ULL},
    {"seed 35", 0xd4ac1cc6cc7691cdULL},
    {"seed 36", 0xe88e1001387f1836ULL},
    {"seed 37", 0x32f4fe5daddee5c1ULL},
    {"seed 38", 0x4489ab0722811790ULL},
    {"seed 39", 0xe83b3d9779a4e3e0ULL},
    {"seed 40", 0x54781a6b43a66f81ULL},
    {"seed 41", 0xb5b55e4b099605c4ULL},
    {"seed 42", 0x79d001a9b56a8585ULL},
    {"seed 43", 0xbf77350b4030eb7dULL},
    {"seed 44", 0xeb5becf43a0166d7ULL},
    {"seed 45", 0x000b3a70018cfb91ULL},
    {"seed 46", 0x4dbfc312a2aa6dd8ULL},
    {"seed 47", 0xf05af337e927e0e9ULL},
    {"seed 48", 0x78abfb14c307a1c5ULL},
    {"seed 49", 0xf0e896c2b5ae4cddULL},
    {"seed 50", 0x4e9c3cec77f3dc16ULL},
    {"seed 51", 0x45d619915e396221ULL},
    {"seed 52", 0xad246fc9482c6e0eULL},
    {"seed 53", 0xa47c8af7ce897218ULL},
    {"seed 54", 0x3927997f258accb3ULL},
    {"seed 55", 0x68a3f2cd67fc8d01ULL},
    {"seed 56", 0xc101b9cd8f59a565ULL},
    {"seed 57", 0x530640fbd9297044ULL},
    {"seed 58", 0xb531a148e4ff0408ULL},
    {"seed 59", 0x225c81c741648dd8ULL},
    {"seed 60", 0x6439faa607fb8aafULL},
};

// One entry per Table I program and cache mode: Analyzer::estimate.
constexpr Golden kSuiteEstimates[] = {
    {"check_data/all-miss", 0xdf5c6d4cf3847720ULL},
    {"check_data/first-iteration-split", 0x9cc4833cc74a8396ULL},
    {"check_data/conflict-graph", 0x51305c52f5ecfa51ULL},
    {"fft/all-miss", 0xf77f9bafb2f1cfbfULL},
    {"fft/first-iteration-split", 0x91b8e3d40e3fa61aULL},
    {"fft/conflict-graph", 0xce45d5c153679733ULL},
    {"piksrt/all-miss", 0x604be5a17408f547ULL},
    {"piksrt/first-iteration-split", 0x98f43daef7ee1d01ULL},
    {"piksrt/conflict-graph", 0xd9aab74bb71919d6ULL},
    {"des/all-miss", 0xedca4af97e82cbfaULL},
    {"des/first-iteration-split", 0xa78143d3f2453d9aULL},
    {"des/conflict-graph", 0x3b15bb007eea1c02ULL},
    {"line/all-miss", 0x33d680dc8e777060ULL},
    {"line/first-iteration-split", 0xf9301619feb55d5dULL},
    {"line/conflict-graph", 0x0f539c6d95040e99ULL},
    {"circle/all-miss", 0x660a58b8fb1ea716ULL},
    {"circle/first-iteration-split", 0x691c602f151387b1ULL},
    {"circle/conflict-graph", 0x7e5d90490a3a5595ULL},
    {"jpeg_fdct_islow/all-miss", 0x398beb3b9fb8778cULL},
    {"jpeg_fdct_islow/first-iteration-split", 0x398beb3b9fb8778cULL},
    {"jpeg_fdct_islow/conflict-graph", 0x757895871667d50dULL},
    {"jpeg_idct_islow/all-miss", 0x73b018da48deb180ULL},
    {"jpeg_idct_islow/first-iteration-split", 0x73b018da48deb180ULL},
    {"jpeg_idct_islow/conflict-graph", 0x98f7e027b2809cd7ULL},
    {"recon/all-miss", 0xb0d094c2183501e1ULL},
    {"recon/first-iteration-split", 0x13c1c1b2b58721e9ULL},
    {"recon/conflict-graph", 0x909c0146920f8c6cULL},
    {"fullsearch/all-miss", 0xaf9c52444e98687bULL},
    {"fullsearch/first-iteration-split", 0x49c3e4cc0b5a63b7ULL},
    {"fullsearch/conflict-graph", 0xde7121bbc9f3567bULL},
    {"whetstone/all-miss", 0x24a797e3afec7458ULL},
    {"whetstone/first-iteration-split", 0xc71df8cf34a99058ULL},
    {"whetstone/conflict-graph", 0x04fd75a834cbcf52ULL},
    {"dhry/all-miss", 0x3a941d542edd45d7ULL},
    {"dhry/first-iteration-split", 0x17c047299a126fc3ULL},
    {"dhry/conflict-graph", 0x3dffb4ed31a4d296ULL},
    {"matgen/all-miss", 0xef11afc74aa56a8fULL},
    {"matgen/first-iteration-split", 0x0b745f14996e2f9eULL},
    {"matgen/conflict-graph", 0xad10b65f983bc761ULL},
};

// One entry per generated program (all three cache modes).
constexpr Golden kFuzzEstimates[] = {
    {"seed 1", 0x654514158fdca7b7ULL},
    {"seed 2", 0x49c2e4b16e9f9187ULL},
    {"seed 3", 0xcdfc83448463c613ULL},
    {"seed 4", 0x8244b1486d79bad5ULL},
    {"seed 5", 0xdc08c56d6ebb9386ULL},
    {"seed 6", 0xa2690c6810633aa3ULL},
    {"seed 7", 0x4beecdce422352eaULL},
    {"seed 8", 0xa6629a5e1be9cfbeULL},
    {"seed 9", 0xc9fb8934aef64909ULL},
    {"seed 10", 0x6fff1cbb52a2538cULL},
    {"seed 11", 0x20f734fb8af71cb0ULL},
    {"seed 12", 0x3583bc1d18bb9250ULL},
    {"seed 13", 0xdb6526002bd30178ULL},
    {"seed 14", 0xad85b7004c1c54bcULL},
    {"seed 15", 0x4dd33ef6176cda4fULL},
    {"seed 16", 0x500443963ecee8bbULL},
    {"seed 17", 0x111f2bf8a21baf4fULL},
    {"seed 18", 0xef5392cf60f6e16bULL},
    {"seed 19", 0x6a29698c5e97cd65ULL},
    {"seed 20", 0x03204694fb6d0b87ULL},
    {"seed 21", 0x63ec5d330887c622ULL},
    {"seed 22", 0x4f19582c77e00d54ULL},
    {"seed 23", 0x82298637b9b7f3e5ULL},
    {"seed 24", 0x77964f72f0ee930fULL},
    {"seed 25", 0x77d7a90955dbbf90ULL},
    {"seed 26", 0xc143a3d1f32c4fc2ULL},
    {"seed 27", 0x1c47cb1d49592c57ULL},
    {"seed 28", 0x63a41145ecad3820ULL},
    {"seed 29", 0x1ca46ac12ca5524cULL},
    {"seed 30", 0x397aa173ec0ae7b5ULL},
    {"seed 31", 0x2a4666fc648a69ebULL},
    {"seed 32", 0x5b7720cd9e6f385dULL},
    {"seed 33", 0x4de5506334082800ULL},
    {"seed 34", 0xa625b448970925deULL},
    {"seed 35", 0xde396d26222064f6ULL},
    {"seed 36", 0x124923ba6dd02622ULL},
    {"seed 37", 0x06b5f5c131f8ba54ULL},
    {"seed 38", 0x1577db98458e299bULL},
    {"seed 39", 0x63ea7b292d8149abULL},
    {"seed 40", 0x233390dd5f652e12ULL},
    {"seed 41", 0x4589c6e6c85539d1ULL},
    {"seed 42", 0x5a2d7aecc0b7021aULL},
    {"seed 43", 0xa645ec5bb566ed86ULL},
    {"seed 44", 0x902103f87595d3f9ULL},
    {"seed 45", 0xeb4c2ff34f324d02ULL},
    {"seed 46", 0xd81437752906c5e5ULL},
    {"seed 47", 0x5e9264fdd8db4a0bULL},
    {"seed 48", 0xbb3f3f4d11641244ULL},
    {"seed 49", 0x7eeda532fca0caacULL},
    {"seed 50", 0x7b8fb59ecb2f0004ULL},
    {"seed 51", 0xbe88158907c8fa03ULL},
    {"seed 52", 0x9b7e01cca0503d37ULL},
    {"seed 53", 0xd788119496871001ULL},
    {"seed 54", 0x890304e1125b3a0cULL},
    {"seed 55", 0x557b55daf3fae3b2ULL},
    {"seed 56", 0xf36e9c7fadfbd169ULL},
    {"seed 57", 0x8defafa7aad63de2ULL},
    {"seed 58", 0x1e80dd2f2712e2f0ULL},
    {"seed 59", 0x4099ee25c90198dfULL},
    {"seed 60", 0x13f1bb6fbf15c08dULL},
};


TEST(SimplexGolden, TableISolvesAcrossCacheModes) {
  test_util::expectPinned(suiteHashes(hashSolves), kSuiteSolves,
                          "solver output");
}

TEST(SimplexGolden, SeededFuzzSolvesAcrossCacheModes) {
  test_util::expectPinned(fuzzHashes(hashSolves), kFuzzSolves,
                          "solver output");
}

TEST(SimplexGolden, TableIEstimateRecordsAcrossCacheModes) {
  test_util::expectPinned(suiteHashes(hashEstimate), kSuiteEstimates,
                          "estimate records");
}

TEST(SimplexGolden, SeededFuzzEstimateRecordsAcrossCacheModes) {
  test_util::expectPinned(fuzzHashes(hashEstimate), kFuzzEstimates,
                          "estimate records");
}

}  // namespace
}  // namespace cinderella
