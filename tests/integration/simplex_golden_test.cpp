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
          st.presolveSubstitutions, st.presolveRounds, st.coldNodes,
          st.diveFallbacks, st.infeasibleConfirmations}) {
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
    {"check_data/all-miss", 0xdd309de67f6943fbULL},
    {"check_data/first-iteration-split", 0x64001a7d64e6b511ULL},
    {"check_data/conflict-graph", 0xb6757bb167c77c61ULL},
    {"fft/all-miss", 0x0df3c70882f6ad23ULL},
    {"fft/first-iteration-split", 0x023349ca278d807bULL},
    {"fft/conflict-graph", 0xdf5a24f00a3a18fdULL},
    {"piksrt/all-miss", 0xd18e90600ba562c7ULL},
    {"piksrt/first-iteration-split", 0x33691f05543e3794ULL},
    {"piksrt/conflict-graph", 0xdd14d31184318bb6ULL},
    {"des/all-miss", 0x2a15883aac1b48eeULL},
    {"des/first-iteration-split", 0xc96c7860dad18796ULL},
    {"des/conflict-graph", 0x3d3d7788613df6faULL},
    {"line/all-miss", 0x3382167bd3bd652fULL},
    {"line/first-iteration-split", 0xdf3a5c797fb29b69ULL},
    {"line/conflict-graph", 0x17625c47a00c6e1eULL},
    {"circle/all-miss", 0x2e345ba9f1e4ffabULL},
    {"circle/first-iteration-split", 0x1523caaac8a16c32ULL},
    {"circle/conflict-graph", 0x967e60e2083846f6ULL},
    {"jpeg_fdct_islow/all-miss", 0x7a6296d7cc4c1a0aULL},
    {"jpeg_fdct_islow/first-iteration-split", 0x7a6296d7cc4c1a0aULL},
    {"jpeg_fdct_islow/conflict-graph", 0x3b063e41df5d1836ULL},
    {"jpeg_idct_islow/all-miss", 0x10cc9f6badb51d52ULL},
    {"jpeg_idct_islow/first-iteration-split", 0x10cc9f6badb51d52ULL},
    {"jpeg_idct_islow/conflict-graph", 0x06386ba48f261cb0ULL},
    {"recon/all-miss", 0xf7fa7f2aeaa30360ULL},
    {"recon/first-iteration-split", 0x7fba5a2f81875a80ULL},
    {"recon/conflict-graph", 0x21ecdf0d03a15262ULL},
    {"fullsearch/all-miss", 0xac29348cfa63db3dULL},
    {"fullsearch/first-iteration-split", 0x9aa93f282c1eef52ULL},
    {"fullsearch/conflict-graph", 0xf3b5f1869ff61179ULL},
    {"whetstone/all-miss", 0xfc12a288c981f48cULL},
    {"whetstone/first-iteration-split", 0x73ac7bced9506b51ULL},
    {"whetstone/conflict-graph", 0xd88393e35368e828ULL},
    {"dhry/all-miss", 0x734046ceb0c04cc1ULL},
    {"dhry/first-iteration-split", 0xa705cf77464d2dd5ULL},
    {"dhry/conflict-graph", 0x50ff0c10903f0cf3ULL},
    {"matgen/all-miss", 0x954e2d543ac2dbd0ULL},
    {"matgen/first-iteration-split", 0xb6acbc7898faf4bcULL},
    {"matgen/conflict-graph", 0xbc3b91a16dbd65d6ULL},
};

// One entry per generated program (all three cache modes).
constexpr Golden kFuzzSolves[] = {
    {"seed 1", 0x8d65dfe52c529e13ULL},
    {"seed 2", 0xa638820a3ba048eaULL},
    {"seed 3", 0xe9366b943cd6b265ULL},
    {"seed 4", 0x93f3cf11f809c199ULL},
    {"seed 5", 0x53d677d629542f46ULL},
    {"seed 6", 0x83c4c77a735794a2ULL},
    {"seed 7", 0x7aacbc54ec951e8fULL},
    {"seed 8", 0xeef5864ea894927dULL},
    {"seed 9", 0x5406c4afdab17896ULL},
    {"seed 10", 0x97bced1c9564ca79ULL},
    {"seed 11", 0x312885a159cc0944ULL},
    {"seed 12", 0xd934a15685ea0621ULL},
    {"seed 13", 0xa4f84deaccce64d2ULL},
    {"seed 14", 0x524652b92c4d16faULL},
    {"seed 15", 0x24582f777cb0150fULL},
    {"seed 16", 0x06f3f9d588f973f3ULL},
    {"seed 17", 0xb99d9f7d4631b707ULL},
    {"seed 18", 0xd0f912dc950af976ULL},
    {"seed 19", 0x528b11fdaced23f2ULL},
    {"seed 20", 0xdffcc0df347f9306ULL},
    {"seed 21", 0x0359693899703b65ULL},
    {"seed 22", 0x764a6b9cd459a335ULL},
    {"seed 23", 0xb73ec8dfaec5acc1ULL},
    {"seed 24", 0xe94738ec6f72f47fULL},
    {"seed 25", 0x492b18f32ea7287eULL},
    {"seed 26", 0x03b7ebb789f0439eULL},
    {"seed 27", 0xb1b8f60b18a351a1ULL},
    {"seed 28", 0xaf0a121de701880dULL},
    {"seed 29", 0x7dc5e07037070bfdULL},
    {"seed 30", 0x93826620e89e7975ULL},
    {"seed 31", 0x67b981dc11a002deULL},
    {"seed 32", 0x35995c2590f3ee6eULL},
    {"seed 33", 0xf0bac377aefc4a5fULL},
    {"seed 34", 0xc0dbe6412142b17cULL},
    {"seed 35", 0xc5db703cdbd3dd05ULL},
    {"seed 36", 0xe8ea814d138d3a80ULL},
    {"seed 37", 0x90263641424c25c3ULL},
    {"seed 38", 0xb39efa2f3f0e2e03ULL},
    {"seed 39", 0xf972ee979393e1fcULL},
    {"seed 40", 0x1a0c545ed9455f03ULL},
    {"seed 41", 0x5fd10fb628330029ULL},
    {"seed 42", 0xde751e670d90b538ULL},
    {"seed 43", 0x53eda0c49adbbd05ULL},
    {"seed 44", 0x13eb0e023ba86a09ULL},
    {"seed 45", 0x5e78b63722251b97ULL},
    {"seed 46", 0x273c5050296e8d87ULL},
    {"seed 47", 0x50470be5ee2752a1ULL},
    {"seed 48", 0xac7e68eb42ea3b11ULL},
    {"seed 49", 0x570bd2c7c15941bfULL},
    {"seed 50", 0xd80639000b0c8a2bULL},
    {"seed 51", 0x945958676707af92ULL},
    {"seed 52", 0x1c4207e3e0b4c68dULL},
    {"seed 53", 0xdb37d8bb78e61e4aULL},
    {"seed 54", 0x6ac845212bed10fbULL},
    {"seed 55", 0x7f24b7bf728221edULL},
    {"seed 56", 0x7f275593ca37fd55ULL},
    {"seed 57", 0x68bd3106d5de7397ULL},
    {"seed 58", 0xfc312f88b44a7c2eULL},
    {"seed 59", 0x88dcb9ea0a8894f9ULL},
    {"seed 60", 0xab0a6d32b9b6993dULL},
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
    {"recon/conflict-graph", 0x876d3ed724bb3d6dULL},
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
    {"seed 9", 0x22a0531ecccfef8bULL},
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
    {"seed 54", 0xf88ee2f576e38efdULL},
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
