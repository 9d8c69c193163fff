// Byte-stability of the content-addressed digests.  The golden hashes
// pinned here are load-bearing: a persisted cache snapshot (CSNAP) keys
// entries by these exact values, so any change to the encoding — field
// order, endianness, canonicalization — orphans every snapshot in the
// field.  If one of these tests fails after an intentional format
// change, bump the snapshot version rather than re-pinning silently.
#include <gtest/gtest.h>

#include <memory>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/digest.hpp"
#include "cinderella/lp/problem.hpp"
#include "cinderella/suite/suite.hpp"

namespace cinderella::ipet {
namespace {

TEST(Digest, GoldenHashOfPrimitiveStream) {
  DigestBuilder b;
  b.tag('T');
  b.u8(0x01);
  b.u32(0xdeadbeef);
  b.u64(0x0123456789abcdefull);
  b.i64(-1);
  b.f64(2.5);
  b.str("cinderella");
  const Digest d = b.finish();
  // Pinned little-endian encoding; see the file comment before editing.
  EXPECT_EQ(d.hex(), "f1ea6e381d632c26ccef7b7c57c6c979");
}

TEST(Digest, EmptyBuilderIsNotEmptyDigest) {
  // finish() of an empty stream is the finalized offset bases — a valid
  // (non-sentinel) digest distinct from Digest{} which means "none".
  const Digest d = DigestBuilder{}.finish();
  EXPECT_FALSE(d.empty());
  EXPECT_TRUE(Digest{}.empty());
}

TEST(Digest, FinishIsConstPrefixSnapshot) {
  DigestBuilder b;
  b.str("structural-core");
  const Digest prefix = b.finish();
  b.str("per-set-rows");
  const Digest full = b.finish();
  EXPECT_NE(prefix, full);
  // The prefix snapshot did not perturb the stream.
  DigestBuilder b2;
  b2.str("structural-core");
  b2.str("per-set-rows");
  EXPECT_EQ(b2.finish(), full);
}

TEST(Digest, NegativeZeroCollapses) {
  DigestBuilder a;
  a.f64(0.0);
  DigestBuilder b;
  b.f64(-0.0);
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(Digest, LengthPrefixPreventsStringSplicing) {
  DigestBuilder a;
  a.str("ab");
  a.str("c");
  DigestBuilder b;
  b.str("a");
  b.str("bc");
  EXPECT_NE(a.finish(), b.finish());
}

TEST(Digest, HexRoundTrip) {
  const Digest d{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(d.hex(), "0123456789abcdeffedcba9876543210");
  const auto back = Digest::fromHex(d.hex());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
  EXPECT_FALSE(Digest::fromHex("short").has_value());
  EXPECT_FALSE(
      Digest::fromHex("0123456789abcdeffedcba987654321g").has_value());
}

TEST(CanonicalRowKey, NormalizesEquivalentRows) {
  // x0 + 2 x1 <= 5  written three equivalent ways.
  lp::Constraint plain;
  plain.expr.add(0, 1.0);
  plain.expr.add(1, 2.0);
  plain.rel = lp::Relation::LessEq;
  plain.rhs = 5.0;

  // Same half-space via GreaterEq negation: -x0 - 2 x1 >= -5.
  lp::Constraint flipped;
  flipped.expr.add(0, -1.0);
  flipped.expr.add(1, -2.0);
  flipped.rel = lp::Relation::GreaterEq;
  flipped.rhs = -5.0;

  // Unsorted terms, a zero coefficient, and a folded constant.
  lp::Constraint messy;
  messy.expr.add(1, 2.0);
  messy.expr.add(2, 0.0);
  messy.expr.add(0, 1.0);
  messy.expr.addConstant(1.0);  // x0 + 2 x1 + 1 <= 6
  messy.rel = lp::Relation::LessEq;
  messy.rhs = 6.0;

  const std::string key = canonicalRowKey(plain);
  EXPECT_EQ(canonicalRowKey(flipped), key);
  EXPECT_EQ(canonicalRowKey(messy), key);

  lp::Constraint other = plain;
  other.rhs = 7.0;
  EXPECT_NE(canonicalRowKey(other), key);
}

TEST(SystemDigests, GoldenHashOfFig2System) {
  // The paper's Fig. 2 if-then-else, the repo's canonical tiny system.
  // Pins the full Analyzer::systemDigests() encoding end to end:
  // frontend numbering, structural rows, cost coefficients, set rows.
  const auto compiled = codegen::compileSource(
      "int q;\nint r;\n"
      "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }");
  Analyzer analyzer(compiled, "f");
  analyzer.addConstraint("x1 = 0 | x2 = 0", "f");
  const Analyzer::SystemDigests digests = analyzer.systemDigests();

  EXPECT_EQ(digests.structural.hex(), "957bbf63db6316c31649be08a36063b0");
  EXPECT_EQ(digests.full.hex(), "8e064cb9529e32d1d7dc46a36ef45c64");
  EXPECT_NE(digests.structural, digests.full);

  // Identical system, rebuilt from scratch: identical digests (the
  // content address ignores object identity).
  const auto recompiled = codegen::compileSource(
      "int q;\nint r;\n"
      "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }");
  Analyzer again(recompiled, "f");
  again.addConstraint("x1 = 0 | x2 = 0", "f");
  const Analyzer::SystemDigests rebuilt = again.systemDigests();
  EXPECT_EQ(rebuilt.full, digests.full);
  EXPECT_EQ(rebuilt.structural, digests.structural);

  // The structural digest is a prefix snapshot: dropping the constraint
  // changes full but not structural.
  Analyzer unconstrained(compiled, "f");
  const Analyzer::SystemDigests plain = unconstrained.systemDigests();
  EXPECT_EQ(plain.structural, digests.structural);
  EXPECT_NE(plain.full, digests.full);
}


struct ProgramDigests {
  const char* program;
  CacheMode mode;
  const char* structural;
  const char* full;
};

TEST(SystemDigests, GoldenHashesOfTableIPrograms) {
  // Three Table I programs in every cache mode: des, dhry (8 sets
  // after DNF expansion) and whetstone (the largest ccg system).  Pins the structural prefix and the full digest together,
  // including the cache-mode variables each mode adds.
  const ProgramDigests golden[] = {
      {"des", CacheMode::AllMiss,
       "db08d0df742250b4af399ff269a28aa3", "c9cb83cfcff8cadc78771e4c4ce070f1"},
      {"des", CacheMode::FirstIterationSplit,
       "231920a80e1e5b096a408a57ccf496e7", "50af5aea940c9bdf8ac65996196d5a20"},
      {"des", CacheMode::ConflictGraph,
       "d506d17d57adcd5e6ad702508e666a74", "708cdf531623be227579dbc40e3d1656"},
      {"dhry", CacheMode::AllMiss,
       "5b1fd784404252facbd4306d4279ddcb", "ebd8f986acee7172c8c08ef2703574cc"},
      {"dhry", CacheMode::FirstIterationSplit,
       "e2ef3b19f7d898b99d2799ed392d8615", "37342850bf6146ba9fae9d760dc0943f"},
      {"dhry", CacheMode::ConflictGraph,
       "ba7edb8b0b574ce14ef7e8f053abbba0", "06a4c7f07298b17ba42e5a70353522ac"},
      {"whetstone", CacheMode::AllMiss,
       "a12dbd72105f94a73a7f0757feb6ebee", "00a4f15990d900bf56e22b06726d356a"},
      {"whetstone", CacheMode::FirstIterationSplit,
       "a5c9729d90f81e2f28bca240ba9a2676", "3adf6d1c9a0f432797d5631545064df8"},
      {"whetstone", CacheMode::ConflictGraph,
       "5066c5f43a395b52126ea96f48c39d7b", "74fe8da2621ac469f1312dbebc8bd1a3"},
  };
  for (const ProgramDigests& g : golden) {
    SCOPED_TRACE(std::string(g.program) + "/" + cacheModeStr(g.mode));
    const suite::Benchmark& bench = suite::benchmarkByName(g.program);
    const auto compiled = codegen::compileSource(bench.source);
    AnalyzerOptions options;
    options.cacheMode = g.mode;
    Analyzer analyzer(compiled, bench.rootFunction, options);
    for (const auto& c : bench.constraints) {
      analyzer.addConstraint(c.text, c.scope);
    }
    const Analyzer::SystemDigests digests = analyzer.systemDigests();
    EXPECT_EQ(digests.structural.hex(), g.structural);
    EXPECT_EQ(digests.full.hex(), g.full);
  }
}

TEST(SystemDigests, EstimateFirstLeavesDigestsUnchanged) {
  // estimate() builds the system without its structural digest, which
  // is hashed on the first digest request; an analyzer that estimated
  // first must still produce the digests of one that never estimated.
  const suite::Benchmark& bench = suite::benchmarkByName("dhry");
  const auto compiled = codegen::compileSource(bench.source);
  for (const CacheMode mode :
       {CacheMode::AllMiss, CacheMode::FirstIterationSplit,
        CacheMode::ConflictGraph}) {
    SCOPED_TRACE(cacheModeStr(mode));
    AnalyzerOptions options;
    options.cacheMode = mode;
    const auto fresh = [&] {
      auto analyzer =
          std::make_unique<Analyzer>(compiled, bench.rootFunction, options);
      for (const auto& c : bench.constraints) {
        analyzer->addConstraint(c.text, c.scope);
      }
      return analyzer;
    };
    const Analyzer::SystemDigests before = fresh()->systemDigests();
    const auto estimated = fresh();
    (void)estimated->estimate();
    const Analyzer::SystemDigests after = estimated->systemDigests();
    EXPECT_EQ(after.structural, before.structural);
    EXPECT_EQ(after.full, before.full);
  }
}

}  // namespace
}  // namespace cinderella::ipet
