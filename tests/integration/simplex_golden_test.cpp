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
    i64(s.devexPivots);
    i64(s.blandRestart);
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
    const ilp::IlpStats& st = s.stats;
    for (const int v :
         {st.nodesExpanded, st.lpCalls,
          static_cast<int>(st.firstRelaxationIntegral), st.totalPivots,
          st.checkedPromotions, st.blandRestarts, st.devexPivots,
          st.presolveRowsRemoved, st.presolveColsFixed,
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
          std::int64_t{r.devexPivots},
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
          st.dominatedSets, st.devexPivots, st.presolveRowsRemoved,
          st.presolveColsFixed, st.presolveSubstitutions,
          st.presolveRounds}) {
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
    {"check_data/all-miss", 0x37616caf13a712fbULL},
    {"check_data/first-iteration-split", 0x71a302d31e2cd991ULL},
    {"check_data/conflict-graph", 0x33dd91979e541961ULL},
    {"fft/all-miss", 0x06d47cc55e44fd23ULL},
    {"fft/first-iteration-split", 0x784c156fc5c04d7bULL},
    {"fft/conflict-graph", 0xee29884108b4fefdULL},
    {"piksrt/all-miss", 0x3e16f344279a1d27ULL},
    {"piksrt/first-iteration-split", 0x2e4e19f563901034ULL},
    {"piksrt/conflict-graph", 0x8d822b3760b7f636ULL},
    {"des/all-miss", 0x8122e27684e8c66eULL},
    {"des/first-iteration-split", 0x779450a85f93a416ULL},
    {"des/conflict-graph", 0xac1d84e43fe625baULL},
    {"line/all-miss", 0xa1648360ceedf10fULL},
    {"line/first-iteration-split", 0xbd3ee4216d8147c9ULL},
    {"line/conflict-graph", 0x3f0e3c0e1fa80bdeULL},
    {"circle/all-miss", 0xf7ffc9c1bed4d46bULL},
    {"circle/first-iteration-split", 0x2a446604b89953f2ULL},
    {"circle/conflict-graph", 0x0c18c22506dbc9b6ULL},
    {"jpeg_fdct_islow/all-miss", 0x87f2414df8d0e2aaULL},
    {"jpeg_fdct_islow/first-iteration-split", 0x87f2414df8d0e2aaULL},
    {"jpeg_fdct_islow/conflict-graph", 0x79b3e303f2b0d856ULL},
    {"jpeg_idct_islow/all-miss", 0x52bd66e07c7f4672ULL},
    {"jpeg_idct_islow/first-iteration-split", 0x52bd66e07c7f4672ULL},
    {"jpeg_idct_islow/conflict-graph", 0xc0df8e8fa3ec6950ULL},
    {"recon/all-miss", 0x1b2e1be411807aa0ULL},
    {"recon/first-iteration-split", 0xf4c2d9591012e7c0ULL},
    {"recon/conflict-graph", 0xbe67e9fbd6d592a1ULL},
    {"fullsearch/all-miss", 0xb1f10461d7d3bf9dULL},
    {"fullsearch/first-iteration-split", 0x86cdd90a21cc62b2ULL},
    {"fullsearch/conflict-graph", 0xcabc8015a312ded9ULL},
    {"whetstone/all-miss", 0x93367b6a3dfbe50cULL},
    {"whetstone/first-iteration-split", 0x92e7baa2facaafd1ULL},
    {"whetstone/conflict-graph", 0x45bbfe8535cdad88ULL},
    {"dhry/all-miss", 0x4a5e9e9450902fe1ULL},
    {"dhry/first-iteration-split", 0x075c13a36ff209f5ULL},
    {"dhry/conflict-graph", 0xc861f9c0de068a13ULL},
    {"matgen/all-miss", 0x4025a9c8e4cd3930ULL},
    {"matgen/first-iteration-split", 0xfd0d586b8dd4fe9cULL},
    {"matgen/conflict-graph", 0xc298585c43ea1af6ULL},
};

// One entry per generated program (all three cache modes).
constexpr Golden kFuzzSolves[] = {
    {"seed 1", 0x915c068c878a97b3ULL},
    {"seed 2", 0xace209bd5f284beaULL},
    {"seed 3", 0x5fcf353d3def6665ULL},
    {"seed 4", 0x0ca5a3fb8c7a3f99ULL},
    {"seed 5", 0xd6dba4ac27f4e666ULL},
    {"seed 6", 0x81ecee4ddff85182ULL},
    {"seed 7", 0x51e733f18b79704fULL},
    {"seed 8", 0x7f9a64f8b77d789dULL},
    {"seed 9", 0x060d17ff270442afULL},
    {"seed 10", 0x67bb6db29897a379ULL},
    {"seed 11", 0x85ca2e4a94ae2ce4ULL},
    {"seed 12", 0x210d7506149455a1ULL},
    {"seed 13", 0xa2be565ed99a9292ULL},
    {"seed 14", 0x3b8700affc499d9aULL},
    {"seed 15", 0x310e76ff6e000e4fULL},
    {"seed 16", 0x7c5c85ad0fe3adf3ULL},
    {"seed 17", 0xd021c8cb17369ee7ULL},
    {"seed 18", 0x0d853bc595f5abf6ULL},
    {"seed 19", 0x93f0d9d5876b2e32ULL},
    {"seed 20", 0x5cc4ef69750ac4e6ULL},
    {"seed 21", 0x7f7f44aa4dd000e5ULL},
    {"seed 22", 0x7ea4df918543c775ULL},
    {"seed 23", 0x6cdfda4179b100e1ULL},
    {"seed 24", 0xd5dac0fdc7b12a5fULL},
    {"seed 25", 0x0a07fcaa38d855beULL},
    {"seed 26", 0x004545b1b1a3de3eULL},
    {"seed 27", 0xf35ed06c26acfca1ULL},
    {"seed 28", 0xdfa1977e272ceacdULL},
    {"seed 29", 0x939c89d521438e3dULL},
    {"seed 30", 0x5db2f4bf7ec29fb5ULL},
    {"seed 31", 0x5d9a30f6e3b8585eULL},
    {"seed 32", 0x12ee2fea7d5d710eULL},
    {"seed 33", 0xd27b30cdfa1fee1fULL},
    {"seed 34", 0x8118d0b9b310785cULL},
    {"seed 35", 0xb0f9da2526851785ULL},
    {"seed 36", 0xefddd17b696b4660ULL},
    {"seed 37", 0x0d81fa250642b943ULL},
    {"seed 38", 0xac83c9a7beea5a83ULL},
    {"seed 39", 0x62c20d04c369da5cULL},
    {"seed 40", 0x4a8182f85fc8a103ULL},
    {"seed 41", 0x1e38790419e25a09ULL},
    {"seed 42", 0xec885f588b6a6158ULL},
    {"seed 43", 0xacf92ea84b7da805ULL},
    {"seed 44", 0x389209d599418849ULL},
    {"seed 45", 0xd45f2d714a2ea0f7ULL},
    {"seed 46", 0x838117d8db6e3447ULL},
    {"seed 47", 0xc6bcc49ec25621a1ULL},
    {"seed 48", 0x84a71a29056f9dd1ULL},
    {"seed 49", 0xf9dcb21e7d59383fULL},
    {"seed 50", 0x2d646e75c79356cbULL},
    {"seed 51", 0x6470daa1b23b5e72ULL},
    {"seed 52", 0x4dd7f77fe5e3f4adULL},
    {"seed 53", 0x50fc4092bc3a7a8aULL},
    {"seed 54", 0xe2a7961b1a3ad381ULL},
    {"seed 55", 0x927acbfaadb5f42dULL},
    {"seed 56", 0xd78fab4b8c764195ULL},
    {"seed 57", 0x0e368f2567a35e97ULL},
    {"seed 58", 0xc2bf02a271ab616eULL},
    {"seed 59", 0xf4bc90bdf699aef9ULL},
    {"seed 60", 0xb286932eff9e53fdULL},
};

// One entry per Table I program and cache mode: Analyzer::estimate.
constexpr Golden kSuiteEstimates[] = {
    {"check_data/all-miss", 0x73da6f881a9c9425ULL},
    {"check_data/first-iteration-split", 0xe270c18c26ad108aULL},
    {"check_data/conflict-graph", 0xffd5eda34ba11c5bULL},
    {"fft/all-miss", 0x87e84311332be5a5ULL},
    {"fft/first-iteration-split", 0x84668ea6952cdd4bULL},
    {"fft/conflict-graph", 0xde3ca2bcdd0fd47bULL},
    {"piksrt/all-miss", 0x11ce1054faf9c04cULL},
    {"piksrt/first-iteration-split", 0x0e56cbbb758207c4ULL},
    {"piksrt/conflict-graph", 0x1e68f9b26dc0ff48ULL},
    {"des/all-miss", 0xf204b2b9adb4a610ULL},
    {"des/first-iteration-split", 0x9c076b0504650212ULL},
    {"des/conflict-graph", 0xa41477396ba73c91ULL},
    {"line/all-miss", 0xec9a8af76310a330ULL},
    {"line/first-iteration-split", 0x4cbb45facce9424fULL},
    {"line/conflict-graph", 0xf461458aa137286eULL},
    {"circle/all-miss", 0x3371bbd8d9b5c817ULL},
    {"circle/first-iteration-split", 0x26652cb3a5a5ccd0ULL},
    {"circle/conflict-graph", 0x1975a4ac16f0f4a9ULL},
    {"jpeg_fdct_islow/all-miss", 0x5f9953b14a8478d2ULL},
    {"jpeg_fdct_islow/first-iteration-split", 0x5f9953b14a8478d2ULL},
    {"jpeg_fdct_islow/conflict-graph", 0xf35a489b4ee4a3c4ULL},
    {"jpeg_idct_islow/all-miss", 0x193112a410c4d19bULL},
    {"jpeg_idct_islow/first-iteration-split", 0x193112a410c4d19bULL},
    {"jpeg_idct_islow/conflict-graph", 0xe2cd5c6bf565ed4aULL},
    {"recon/all-miss", 0xba7b8ef6d3f519f2ULL},
    {"recon/first-iteration-split", 0xa7cc92d4d42be116ULL},
    {"recon/conflict-graph", 0xd9cedb5dd201e384ULL},
    {"fullsearch/all-miss", 0x65cdcd9814dbbb56ULL},
    {"fullsearch/first-iteration-split", 0xec83b39ea9ba0fa8ULL},
    {"fullsearch/conflict-graph", 0x73548a93e5bdf808ULL},
    {"whetstone/all-miss", 0xb59a006239d85e91ULL},
    {"whetstone/first-iteration-split", 0xa1ba17b331fdc114ULL},
    {"whetstone/conflict-graph", 0x8305d5bf975b7d48ULL},
    {"dhry/all-miss", 0xe5a393728ffe3383ULL},
    {"dhry/first-iteration-split", 0x5b3e37886b5188c6ULL},
    {"dhry/conflict-graph", 0x98a210784762c84dULL},
    {"matgen/all-miss", 0xdc4eb770829f1cc2ULL},
    {"matgen/first-iteration-split", 0xb9df7de5b78863b9ULL},
    {"matgen/conflict-graph", 0xfb199ccb233579fdULL},
};

// One entry per generated program (all three cache modes).
constexpr Golden kFuzzEstimates[] = {
    {"seed 1", 0x6a005e7427dadcaaULL},
    {"seed 2", 0x701956e09a041d0bULL},
    {"seed 3", 0x38388dd32249156cULL},
    {"seed 4", 0x3af20535e10719b1ULL},
    {"seed 5", 0x0f0ba09ab3ee8a94ULL},
    {"seed 6", 0xa68e12fe6aeaad6cULL},
    {"seed 7", 0x04abdb1ac8c9baaaULL},
    {"seed 8", 0xbdc244d74c15df3dULL},
    {"seed 9", 0xe451059a6d2a62f7ULL},
    {"seed 10", 0x4287bd2a908499d7ULL},
    {"seed 11", 0x4e94b54f2725b7f1ULL},
    {"seed 12", 0xb2315d3c7a9d5811ULL},
    {"seed 13", 0x8e9b36e0d7a623f3ULL},
    {"seed 14", 0xbac906a810888addULL},
    {"seed 15", 0xc9294d6ba6e61544ULL},
    {"seed 16", 0x8def0a53b39414c1ULL},
    {"seed 17", 0xdb76aa1e7f6520b7ULL},
    {"seed 18", 0x31b56f639c5be061ULL},
    {"seed 19", 0x659b802440c78951ULL},
    {"seed 20", 0x63809227c20e32feULL},
    {"seed 21", 0x9aa6011fef9f28eaULL},
    {"seed 22", 0xd94a2b4abefd08a8ULL},
    {"seed 23", 0x24d33c1afe8b0ebcULL},
    {"seed 24", 0xb746b7c563e135d1ULL},
    {"seed 25", 0x91db5ff94c8ee344ULL},
    {"seed 26", 0x5abb3538538264bfULL},
    {"seed 27", 0x690c6e2dd29d9e18ULL},
    {"seed 28", 0x6e08278644a2c2feULL},
    {"seed 29", 0x23337c343e7c7f79ULL},
    {"seed 30", 0x3eb234ca101d047cULL},
    {"seed 31", 0x577c3435fabff1d0ULL},
    {"seed 32", 0xed8953848d0ad97dULL},
    {"seed 33", 0x87927bea12bd7a84ULL},
    {"seed 34", 0xb7230ab927cb258dULL},
    {"seed 35", 0x77555b6a28814719ULL},
    {"seed 36", 0x3a64c3ca27c8da22ULL},
    {"seed 37", 0x1753766e6b624c65ULL},
    {"seed 38", 0xa626c864b36ad886ULL},
    {"seed 39", 0xc5f7c43e6c7cdedbULL},
    {"seed 40", 0x3e82863f7d31b59cULL},
    {"seed 41", 0x74738295c0980ca9ULL},
    {"seed 42", 0xec98f33babf8bce5ULL},
    {"seed 43", 0xa51ab9afb7b5a5c4ULL},
    {"seed 44", 0x970b9ac4f1a4213eULL},
    {"seed 45", 0xc867bf4a2b018db1ULL},
    {"seed 46", 0x25ceab56043d0420ULL},
    {"seed 47", 0x01092dbff06421efULL},
    {"seed 48", 0x5b605999ffbf5aa5ULL},
    {"seed 49", 0xd9bde73f854b1f76ULL},
    {"seed 50", 0x291a2a248519624cULL},
    {"seed 51", 0x75f088f35adc97f4ULL},
    {"seed 52", 0xbdf4e0aebfa32ffdULL},
    {"seed 53", 0xe4091ecc7145bf9cULL},
    {"seed 54", 0x1511e002e5ba3461ULL},
    {"seed 55", 0x04518a45dd1058d2ULL},
    {"seed 56", 0x95247d3db0a9f505ULL},
    {"seed 57", 0x9a33fc26aef8bc26ULL},
    {"seed 58", 0x7abe0459b155f683ULL},
    {"seed 59", 0x4440d18261edb99dULL},
    {"seed 60", 0x9cd2be05126e1d24ULL},
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
