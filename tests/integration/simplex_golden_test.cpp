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
          static_cast<int>(st.allFirstRelaxationsIntegral), st.totalPivots,
          st.checkedPromotions, st.blandRestarts, st.devexPivots,
          st.presolveRowsRemoved, st.presolveColsFixed,
          st.presolveSubstitutions, st.presolveRounds, st.coldNodes,
          st.diveFallbacks, st.infeasibleConfirmations}) {
      i64(v);
    }
  }

  void add(const ipet::IlpSolveRecord& r) {
    for (const std::int64_t v :
         {std::int64_t{r.solved}, std::int64_t{r.feasible}, r.objective,
          std::int64_t{r.stats.nodesExpanded}, std::int64_t{r.stats.lpCalls},
          std::int64_t{r.stats.totalPivots},
          std::int64_t{r.stats.allFirstRelaxationsIntegral},
          std::int64_t{r.stats.checkedPromotions},
          std::int64_t{r.stats.blandRestarts},
          std::int64_t{r.stats.devexPivots},
          std::int64_t{r.stats.presolveRowsRemoved},
          std::int64_t{r.stats.presolveColsFixed},
          std::int64_t{r.stats.presolveSubstitutions},
          std::int64_t{r.stats.presolveRounds}, std::int64_t{r.degraded},
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
    {"check_data/all-miss", 0xdd309de67f6943fbULL},
    {"check_data/first-iteration-split", 0x64001a7d64e6b511ULL},
    {"check_data/conflict-graph", 0x02aace96412c035dULL},
    {"fft/all-miss", 0x0df3c70882f6ad23ULL},
    {"fft/first-iteration-split", 0x023349ca278d807bULL},
    {"fft/conflict-graph", 0xb6f5278f17976131ULL},
    {"piksrt/all-miss", 0x44a1a23aadb05a83ULL},
    {"piksrt/first-iteration-split", 0xafe906a9ebda0a78ULL},
    {"piksrt/conflict-graph", 0xb5bbc09331d01e16ULL},
    {"des/all-miss", 0x2a15883aac1b48eeULL},
    {"des/first-iteration-split", 0xc96c7860dad18796ULL},
    {"des/conflict-graph", 0x2976e7477b66cbf3ULL},
    {"line/all-miss", 0x5611b9bd8874a79eULL},
    {"line/first-iteration-split", 0xab29d2823a57a7c4ULL},
    {"line/conflict-graph", 0x359fdd9269e0fdb2ULL},
    {"circle/all-miss", 0x0c769e0caacd9febULL},
    {"circle/first-iteration-split", 0xe9e631586ff80726ULL},
    {"circle/conflict-graph", 0x593e159ebeab6ecaULL},
    {"jpeg_fdct_islow/all-miss", 0x7a6296d7cc4c1a0aULL},
    {"jpeg_fdct_islow/first-iteration-split", 0x7a6296d7cc4c1a0aULL},
    {"jpeg_fdct_islow/conflict-graph", 0x5f41820d844c54eeULL},
    {"jpeg_idct_islow/all-miss", 0xb901253bf6b178ceULL},
    {"jpeg_idct_islow/first-iteration-split", 0xb901253bf6b178ceULL},
    {"jpeg_idct_islow/conflict-graph", 0x5a16112f6445b06aULL},
    {"recon/all-miss", 0x67333468683bf6e0ULL},
    {"recon/first-iteration-split", 0xbe5f25087a3768e8ULL},
    {"recon/conflict-graph", 0x31b8c816c69c2844ULL},
    {"fullsearch/all-miss", 0x0fa58bbeaf4d7331ULL},
    {"fullsearch/first-iteration-split", 0x63f0f6d8cb6df42aULL},
    {"fullsearch/conflict-graph", 0x1e452fa690ab8cadULL},
    {"whetstone/all-miss", 0xfc12a288c981f48cULL},
    {"whetstone/first-iteration-split", 0x73ac7bced9506b51ULL},
    {"whetstone/conflict-graph", 0xb6ddcadbfa0379a7ULL},
    {"dhry/all-miss", 0x976f7aaa49bae005ULL},
    {"dhry/first-iteration-split", 0x20f7f48b29a59d79ULL},
    {"dhry/conflict-graph", 0xda8b1f4d4f8dd90fULL},
    {"matgen/all-miss", 0x954e2d543ac2dbd0ULL},
    {"matgen/first-iteration-split", 0xb6acbc7898faf4bcULL},
    {"matgen/conflict-graph", 0x48c165913bbb6223ULL},
};

// One entry per generated program (all three cache modes).
constexpr Golden kFuzzSolves[] = {
    {"seed 1", 0xdbe89e9005a3d37bULL},
    {"seed 2", 0x9ff04e6e2bbb5e82ULL},
    {"seed 3", 0x1f90970c7c647e85ULL},
    {"seed 4", 0x5a217efafe50ccf1ULL},
    {"seed 5", 0x7a24c9c93606b496ULL},
    {"seed 6", 0x13a1a387a0055d6aULL},
    {"seed 7", 0xbb11a6c1da598787ULL},
    {"seed 8", 0xb13a8e5c0ce0651dULL},
    {"seed 9", 0xf1fc3d01da9d4d70ULL},
    {"seed 10", 0x89441554a7b08db9ULL},
    {"seed 11", 0x865c5b44c6ebc730ULL},
    {"seed 12", 0x74c6039f7d678cb9ULL},
    {"seed 13", 0x8627a179b628f592ULL},
    {"seed 14", 0xcc25ac0135022946ULL},
    {"seed 15", 0xa4f5b7734136bbf7ULL},
    {"seed 16", 0xc3a4c9d00a0d6783ULL},
    {"seed 17", 0xb99d9f7d4631b707ULL},
    {"seed 18", 0x9d96a1cefbabe744ULL},
    {"seed 19", 0x7ba04f5424a4e252ULL},
    {"seed 20", 0xdffcc0df347f9306ULL},
    {"seed 21", 0xef24e9c79ab3cc75ULL},
    {"seed 22", 0x8df468096fe70115ULL},
    {"seed 23", 0xb73ec8dfaec5acc1ULL},
    {"seed 24", 0x61f5851ffcf67a15ULL},
    {"seed 25", 0x492b18f32ea7287eULL},
    {"seed 26", 0x58c38928bac5fd4eULL},
    {"seed 27", 0xe2dceb0f5cab6fb1ULL},
    {"seed 28", 0x106bc25be957ee1dULL},
    {"seed 29", 0xf2c29ffb658af9cdULL},
    {"seed 30", 0x5ecac5ee0431b455ULL},
    {"seed 31", 0x915b9f454b4a9206ULL},
    {"seed 32", 0x1080f578e5e0cea9ULL},
    {"seed 33", 0x02e32620f5567d97ULL},
    {"seed 34", 0xd7ec9d80faaff618ULL},
    {"seed 35", 0x2cf8acfa7a8d245dULL},
    {"seed 36", 0xcdac4c694b8d20f5ULL},
    {"seed 37", 0x1032c069e31e2fb3ULL},
    {"seed 38", 0x04e10d4e3aa0ef83ULL},
    {"seed 39", 0x9ef613b058c8de16ULL},
    {"seed 40", 0x9f0ce2b0786b0703ULL},
    {"seed 41", 0xf30eb0aa9c6e9ab5ULL},
    {"seed 42", 0x588c032442184760ULL},
    {"seed 43", 0x81b047010836a31dULL},
    {"seed 44", 0x9506af4682520cbdULL},
    {"seed 45", 0xca4079fbb3fcaba5ULL},
    {"seed 46", 0x59d6faf9a0a45447ULL},
    {"seed 47", 0xe8a06cddadb75069ULL},
    {"seed 48", 0xa9d312eb2c937c5dULL},
    {"seed 49", 0x570bd2c7c15941bfULL},
    {"seed 50", 0xef8841b915ad97e7ULL},
    {"seed 51", 0x9e20437df6107447ULL},
    {"seed 52", 0xa58d8f904d33403aULL},
    {"seed 53", 0xdb37d8bb78e61e4aULL},
    {"seed 54", 0x846326efac084169ULL},
    {"seed 55", 0x6355f327596d9ffdULL},
    {"seed 56", 0xd337ce4773a3f6e5ULL},
    {"seed 57", 0x5b20c6d1562e9e0fULL},
    {"seed 58", 0xfc312f88b44a7c2eULL},
    {"seed 59", 0xfb30d0952b147ab9ULL},
    {"seed 60", 0x4c86df3fc1094351ULL},
};

// One entry per Table I program and cache mode: Analyzer::estimate.
constexpr Golden kSuiteEstimates[] = {
    {"check_data/all-miss", 0x73da6f881a9c9425ULL},
    {"check_data/first-iteration-split", 0xe270c18c26ad108aULL},
    {"check_data/conflict-graph", 0xf8540f242c592023ULL},
    {"fft/all-miss", 0x87e84311332be5a5ULL},
    {"fft/first-iteration-split", 0x84668ea6952cdd4bULL},
    {"fft/conflict-graph", 0xc37e3e4bee3167baULL},
    {"piksrt/all-miss", 0xf392c52988e5b1e1ULL},
    {"piksrt/first-iteration-split", 0xb157488640368a10ULL},
    {"piksrt/conflict-graph", 0x8ce6f82ccd36ce4fULL},
    {"des/all-miss", 0xf204b2b9adb4a610ULL},
    {"des/first-iteration-split", 0x9c076b0504650212ULL},
    {"des/conflict-graph", 0x68eab0f487774aedULL},
    {"line/all-miss", 0xd046ce7dd91506ddULL},
    {"line/first-iteration-split", 0x0648a2d8f87497e1ULL},
    {"line/conflict-graph", 0xe898dbda5c7cb9a1ULL},
    {"circle/all-miss", 0x4a0a20a1e6eb57faULL},
    {"circle/first-iteration-split", 0x5aad23e1ccca3d68ULL},
    {"circle/conflict-graph", 0xc4e20eaa53353221ULL},
    {"jpeg_fdct_islow/all-miss", 0x5f9953b14a8478d2ULL},
    {"jpeg_fdct_islow/first-iteration-split", 0x5f9953b14a8478d2ULL},
    {"jpeg_fdct_islow/conflict-graph", 0x76791b69fbe6196dULL},
    {"jpeg_idct_islow/all-miss", 0xa3940b5e5d4d5181ULL},
    {"jpeg_idct_islow/first-iteration-split", 0xa3940b5e5d4d5181ULL},
    {"jpeg_idct_islow/conflict-graph", 0x749562749a185476ULL},
    {"recon/all-miss", 0xc2f95177e1c200a7ULL},
    {"recon/first-iteration-split", 0xb586e46478bcbfa5ULL},
    {"recon/conflict-graph", 0x8c23528a7be6e48bULL},
    {"fullsearch/all-miss", 0x301aa20d747e122fULL},
    {"fullsearch/first-iteration-split", 0x12b9880d940ea2a8ULL},
    {"fullsearch/conflict-graph", 0xbb68a98165ae8024ULL},
    {"whetstone/all-miss", 0xb59a006239d85e91ULL},
    {"whetstone/first-iteration-split", 0xa1ba17b331fdc114ULL},
    {"whetstone/conflict-graph", 0xbca3d285e7b609b8ULL},
    {"dhry/all-miss", 0xe5a393728ffe3383ULL},
    {"dhry/first-iteration-split", 0x5b3e37886b5188c6ULL},
    {"dhry/conflict-graph", 0x41eebe922d69054cULL},
    {"matgen/all-miss", 0xdc4eb770829f1cc2ULL},
    {"matgen/first-iteration-split", 0xb9df7de5b78863b9ULL},
    {"matgen/conflict-graph", 0x2b6a045d1551f010ULL},
};

// One entry per generated program (all three cache modes).
constexpr Golden kFuzzEstimates[] = {
    {"seed 1", 0x0c98268e634dd2a2ULL},
    {"seed 2", 0x7fb44245a5b3f6a4ULL},
    {"seed 3", 0xdb64c39575fc1f44ULL},
    {"seed 4", 0x3fea4f5808682d8eULL},
    {"seed 5", 0x677d35d56c62f33aULL},
    {"seed 6", 0x58e37ce639d14339ULL},
    {"seed 7", 0xf89e7be1756cdab8ULL},
    {"seed 8", 0x72d02cdeabc55b5dULL},
    {"seed 9", 0xf051c69a314364bcULL},
    {"seed 10", 0xb353c7ac6950b2ffULL},
    {"seed 11", 0xc523987f7a6f8f61ULL},
    {"seed 12", 0xf8761ffe3fa08aa9ULL},
    {"seed 13", 0x71181f3bda1c2bafULL},
    {"seed 14", 0xec3cafc3395cba34ULL},
    {"seed 15", 0x67fc27d1ecb741dcULL},
    {"seed 16", 0x1912ec890a4b4b7dULL},
    {"seed 17", 0xdb76aa1e7f6520b7ULL},
    {"seed 18", 0xd2bcc9c04eb09107ULL},
    {"seed 19", 0xd28b640353dcdfedULL},
    {"seed 20", 0x63809227c20e32feULL},
    {"seed 21", 0x189b06e5b555fab7ULL},
    {"seed 22", 0xe1c5ead0c9a51275ULL},
    {"seed 23", 0x24d33c1afe8b0ebcULL},
    {"seed 24", 0x714046cbe6fdec83ULL},
    {"seed 25", 0x91db5ff94c8ee344ULL},
    {"seed 26", 0xa15b397385f7c158ULL},
    {"seed 27", 0x4d2524c5288a5b1aULL},
    {"seed 28", 0x98ee4af49aeb3719ULL},
    {"seed 29", 0x47d670d00105e622ULL},
    {"seed 30", 0xa2c8c355d425aa47ULL},
    {"seed 31", 0x56f3a826fd766760ULL},
    {"seed 32", 0x59c77ff35e744f55ULL},
    {"seed 33", 0xf4f471d2bb083c97ULL},
    {"seed 34", 0x4d1e80482da78145ULL},
    {"seed 35", 0xde4fddfef0b6bb73ULL},
    {"seed 36", 0x917d8d32152d5836ULL},
    {"seed 37", 0x81a7454e4bf7944eULL},
    {"seed 38", 0x53209637a5342433ULL},
    {"seed 39", 0xe04c7cb328f542e7ULL},
    {"seed 40", 0x886eae9afbbdf9eeULL},
    {"seed 41", 0x86673b71fc885765ULL},
    {"seed 42", 0xc3173f80be062dadULL},
    {"seed 43", 0x8f3527e0851e638aULL},
    {"seed 44", 0x5c9569be56f5fc8dULL},
    {"seed 45", 0x81089659620d658fULL},
    {"seed 46", 0x44be5650b1632c86ULL},
    {"seed 47", 0xd174634a85971db3ULL},
    {"seed 48", 0x96afaa0792008bd1ULL},
    {"seed 49", 0xd9bde73f854b1f76ULL},
    {"seed 50", 0x291a2a248519624cULL},
    {"seed 51", 0x2dadd415933eb350ULL},
    {"seed 52", 0x80bc89abd8cdf883ULL},
    {"seed 53", 0xe4091ecc7145bf9cULL},
    {"seed 54", 0x83db2d42b8351b2eULL},
    {"seed 55", 0xa5adeb6613a4130dULL},
    {"seed 56", 0xfc9ebebdb7cfd336ULL},
    {"seed 57", 0x8a06270fb978cad9ULL},
    {"seed 58", 0x7abe0459b155f683ULL},
    {"seed 59", 0xa9a6dff523d91800ULL},
    {"seed 60", 0x3cbeff115331f89fULL},
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
