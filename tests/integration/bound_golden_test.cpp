// Golden bounds: a hash of what an estimate means and nothing about how
// it was reached — the merged interval and, per constraint set, the
// pruned/shared flags, the verdict and both sides' bound (the exact
// integer optimum, or the sound fallback bound of a degraded side) —
// plus the exact objective of ilp::solve on every exported worst-case
// and best-case ILP.  Pinned for the Table I programs in every cache
// mode and for the seeded fuzz programs of PresolveGolden, and required
// to be identical at 1 and 4 threads with presolve on and off.
//
// Pivot counts, node counts and witness points are left out on purpose:
// a change to how the solver walks to an optimum may move them (that is
// what SimplexGolden pins), but must never move a bound.  Do not re-pin
// this table for a performance change.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/fuzz/generator.hpp"
#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/suite/suite.hpp"
#include "test_util/root_systems.hpp"

namespace cinderella {
namespace {

using test_util::Golden;
using test_util::Hashes;
using test_util::kCacheModes;

struct BoundHash : test_util::Fnv {
  void add(const ipet::IlpSolveRecord& r) {
    i64(r.solved);
    i64(r.feasible);
    i64(r.objective);
    i64(r.degraded);
    i64(r.fallbackBound);
  }

  void add(const ipet::Estimate& e) {
    i64(e.bound.lo);
    i64(e.bound.hi);
    i64(e.sound());
    u64(e.setRecords.size());
    for (const ipet::SetSolveRecord& r : e.setRecords) {
      i64(r.sharedWith);
      i64(r.dominated);
      i64(r.pruned);
      i64(static_cast<int>(r.verdict));
      add(r.worst);
      add(r.best);
    }
  }

  void add(const ilp::IlpSolution& s) {
    i64(static_cast<int>(s.status));
    i64(s.objectiveExact);
    i64(s.objectiveIsExact);
  }
};

/// The estimate's bound hash, checked equal across thread counts and
/// presolve on/off, folded into `hash`.
void hashEstimates(const ipet::Analyzer& analyzer, BoundHash* hash) {
  std::uint64_t first = 0;
  bool haveFirst = false;
  for (const bool presolve : {true, false}) {
    for (const int threads : {1, 4}) {
      ipet::SolveControl control;
      control.presolve = presolve;
      control.threads = threads;
      BoundHash one;
      one.add(analyzer.estimate(control));
      if (!haveFirst) {
        first = one.state;
        haveFirst = true;
      }
      EXPECT_EQ(one.state, first) << "bounds differ at " << threads
                                  << " threads, presolve "
                                  << (presolve ? "on" : "off");
    }
  }
  hash->u64(first);
}

/// ilp::solve of the worst-case and best-case ILP of every constraint
/// set, folded into `hash`.
void hashIlps(const ipet::Analyzer& analyzer, BoundHash* hash) {
  const auto best = test_util::bestCosts(analyzer);
  std::vector<lp::Problem> systems = test_util::exportedSystems(analyzer);
  EXPECT_FALSE(systems.empty());
  for (lp::Problem& p : systems) {
    hash->add(ilp::solve(p));
    p.setObjective(test_util::bestObjective(p, best), lp::Sense::Minimize);
    hash->add(ilp::solve(p));
  }
}

void hashAll(const ipet::Analyzer& analyzer, BoundHash* hash) {
  hashEstimates(analyzer, hash);
  hashIlps(analyzer, hash);
}

Hashes suiteHashes() {
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
      BoundHash hash;
      hashAll(analyzer, &hash);
      actual.emplace_back(bench.name + "/" + ipet::cacheModeStr(mode),
                          hash.state);
    }
  }
  return actual;
}

Hashes fuzzHashes() {
  fuzz::GeneratorOptions options;
  options.emitConstraints = true;
  fuzz::ProgramGenerator generator(options);
  Hashes actual;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const fuzz::GeneratedProgram program = generator.generate(seed);
    const auto compiled = codegen::compileSource(program.source);
    BoundHash hash;
    for (const ipet::CacheMode mode : kCacheModes) {
      ipet::AnalyzerOptions aopt;
      aopt.cacheMode = mode;
      ipet::Analyzer analyzer(compiled, program.root, aopt);
      for (const std::string& c : program.constraints) {
        analyzer.addConstraint(c, program.root);
      }
      hashAll(analyzer, &hash);
    }
    actual.emplace_back("seed " + std::to_string(seed), hash.state);
  }
  return actual;
}

// One entry per Table I program and cache mode.
constexpr Golden kSuiteBounds[] = {
    {"check_data/all-miss", 0x598b3cbbffbf5873ULL},
    {"check_data/first-iteration-split", 0xe4eaf744b18f93e0ULL},
    {"check_data/conflict-graph", 0xeaed759e84fc9740ULL},
    {"fft/all-miss", 0xd8902801b23e7726ULL},
    {"fft/first-iteration-split", 0xa02da5a836b28d7dULL},
    {"fft/conflict-graph", 0x4afcfe2d850435e8ULL},
    {"piksrt/all-miss", 0x8b008835831d23cfULL},
    {"piksrt/first-iteration-split", 0x009608fdc056ee3eULL},
    {"piksrt/conflict-graph", 0xe7767ac6f1bba8c4ULL},
    {"des/all-miss", 0xc8aa59146c518971ULL},
    {"des/first-iteration-split", 0x31ad22d5936508f0ULL},
    {"des/conflict-graph", 0x5ec61539432d7869ULL},
    {"line/all-miss", 0xf8922d166f2f028fULL},
    {"line/first-iteration-split", 0x010de69df7021316ULL},
    {"line/conflict-graph", 0x48e57abd5ee6bc1dULL},
    {"circle/all-miss", 0x802b643e8128cd40ULL},
    {"circle/first-iteration-split", 0xc17989a04eea55f0ULL},
    {"circle/conflict-graph", 0x41b6fe69338955f6ULL},
    {"jpeg_fdct_islow/all-miss", 0xb3fa0e646579608bULL},
    {"jpeg_fdct_islow/first-iteration-split", 0xb3fa0e646579608bULL},
    {"jpeg_fdct_islow/conflict-graph", 0x3b4e4340b0a317c7ULL},
    {"jpeg_idct_islow/all-miss", 0xff6eab7e99e42236ULL},
    {"jpeg_idct_islow/first-iteration-split", 0xff6eab7e99e42236ULL},
    {"jpeg_idct_islow/conflict-graph", 0x768fe1183c3166b7ULL},
    {"recon/all-miss", 0x8bc7eba870ad22c3ULL},
    {"recon/first-iteration-split", 0xcf95ff58c5aa6eb5ULL},
    {"recon/conflict-graph", 0x136acf295f338d4fULL},
    {"fullsearch/all-miss", 0xeaa40ce25728e3a3ULL},
    {"fullsearch/first-iteration-split", 0xcb9be6d6aa003226ULL},
    {"fullsearch/conflict-graph", 0xf20bd9148f9f3c46ULL},
    {"whetstone/all-miss", 0x5884174fedf1828dULL},
    {"whetstone/first-iteration-split", 0xa307b3d1a692b908ULL},
    {"whetstone/conflict-graph", 0xa518bcf996f15cb4ULL},
    {"dhry/all-miss", 0xd5236532edea351aULL},
    {"dhry/first-iteration-split", 0x0495e459e994075cULL},
    {"dhry/conflict-graph", 0x1b7c5d08e9aeb220ULL},
    {"matgen/all-miss", 0xb1b3719e24b86572ULL},
    {"matgen/first-iteration-split", 0x61159c3777ba3999ULL},
    {"matgen/conflict-graph", 0xcafd99766231318bULL},
};

// One entry per generated program (all three cache modes).
constexpr Golden kFuzzBounds[] = {
    {"seed 1", 0xda0f58bc8b62428dULL},
    {"seed 2", 0xceaab034bc589f58ULL},
    {"seed 3", 0x16d5c759f8b2e785ULL},
    {"seed 4", 0x74e4dcad1c42e2f3ULL},
    {"seed 5", 0x76158ba2ff67c2cbULL},
    {"seed 6", 0x09506be20ca0741eULL},
    {"seed 7", 0xa4c92f3b5e973479ULL},
    {"seed 8", 0x521ee78dc2a832fbULL},
    {"seed 9", 0x86040424463e1212ULL},
    {"seed 10", 0x97e76fca8d5a5a55ULL},
    {"seed 11", 0xb630f11986cd7759ULL},
    {"seed 12", 0xb08b9445ca62fa0bULL},
    {"seed 13", 0x90aa47e18c1bbfdfULL},
    {"seed 14", 0xb56e2430b66d6f4dULL},
    {"seed 15", 0x91f626d854e5e131ULL},
    {"seed 16", 0xfc7b83975eb154daULL},
    {"seed 17", 0x981d093d32071245ULL},
    {"seed 18", 0x3c14100c31306102ULL},
    {"seed 19", 0xa66e458a61b8c1a5ULL},
    {"seed 20", 0x681882ff7bb045f3ULL},
    {"seed 21", 0x409e503efeca7103ULL},
    {"seed 22", 0x3c88cb9f491fe8e1ULL},
    {"seed 23", 0x407b5f23081f4e3fULL},
    {"seed 24", 0xc35e7af3ece0c0fdULL},
    {"seed 25", 0x98acd0269a3336a6ULL},
    {"seed 26", 0xf94fb20b075ad2feULL},
    {"seed 27", 0xa86c3c019c8eed1bULL},
    {"seed 28", 0x91e2585076a6a472ULL},
    {"seed 29", 0xa6d28c611c62f177ULL},
    {"seed 30", 0xa38fa339e48dc7ecULL},
    {"seed 31", 0xaffe9d407c620549ULL},
    {"seed 32", 0x4aa44e4c42d8f990ULL},
    {"seed 33", 0xcf118a5191ca0959ULL},
    {"seed 34", 0x06e1612fd2aa254bULL},
    {"seed 35", 0x7ca4d408a8be4f37ULL},
    {"seed 36", 0xed83114812e148c8ULL},
    {"seed 37", 0x847d6710f4ddf20aULL},
    {"seed 38", 0x9ad7e4e2fc1c27c0ULL},
    {"seed 39", 0x53bb1d6b0cf370c1ULL},
    {"seed 40", 0x20f13da2a707f926ULL},
    {"seed 41", 0x7d8d8b8c6bb1764dULL},
    {"seed 42", 0xfa042ad95306dd98ULL},
    {"seed 43", 0x1df00d1aa0205eb3ULL},
    {"seed 44", 0xc60b322e57203e2cULL},
    {"seed 45", 0xd3ef593260c415daULL},
    {"seed 46", 0x3f8f4e25ecbd9505ULL},
    {"seed 47", 0x63f3d94d158c7a45ULL},
    {"seed 48", 0xaa54793183dac2edULL},
    {"seed 49", 0x18f93af01b3dc7e2ULL},
    {"seed 50", 0xedd7968fe26a39b4ULL},
    {"seed 51", 0xd8400bc3240f21ebULL},
    {"seed 52", 0xfba6a1712082307bULL},
    {"seed 53", 0x90053bf7a1e2db03ULL},
    {"seed 54", 0xfeb57451e562fef0ULL},
    {"seed 55", 0xa7c0c9dc0d18bfd7ULL},
    {"seed 56", 0x0acb8bc9feae8551ULL},
    {"seed 57", 0xf84f9f15988651b9ULL},
    {"seed 58", 0x646da452ce67293aULL},
    {"seed 59", 0xa59ce03b12167e11ULL},
    {"seed 60", 0x02600344be6d2692ULL},
};

TEST(BoundGolden, TableIBoundsAcrossCacheModes) {
  test_util::expectPinned(suiteHashes(), kSuiteBounds, "bounds");
}

TEST(BoundGolden, SeededFuzzBoundsAcrossCacheModes) {
  test_util::expectPinned(fuzzHashes(), kFuzzBounds, "bounds");
}

}  // namespace
}  // namespace cinderella
