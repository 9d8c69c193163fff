// IPET analyzer tests: structural constraints (the paper's Figs 2-4
// verbatim), loop bounds, call contexts, disjunction handling, and the
// Section-IV first-iteration refinement.
#include <gtest/gtest.h>

#include <algorithm>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/lang/parser.hpp"
#include "cinderella/lang/sema.hpp"
#include "cinderella/sim/simulator.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella::ipet {
namespace {

// ---------------------------------------------------------------------
// Paper Fig. 2: if-then-else.  x1 = d1 = d2+d3; x2 = d2 = d4;
// x3 = d3 = d5; x4 = d4+d5 = d6.
TEST(Structural, PaperFig2IfThenElse) {
  const auto c = codegen::compileSource(
      "int q;\nint r;\n"
      "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }");
  Analyzer analyzer(c, "f");
  const auto constraints = analyzer.flowConstraints(0);
  ASSERT_EQ(constraints.size(), 4u);
  const auto& cfg = analyzer.cfgOf(0);

  // Block 0 (cond): one in-edge (entry), two out-edges.
  EXPECT_EQ(constraints[0].inEdges.size(), 1u);
  EXPECT_TRUE(cfg.edge(constraints[0].inEdges[0]).isEntry());
  EXPECT_EQ(constraints[0].outEdges.size(), 2u);
  // Then and else: one in, one out each.
  for (int b : {1, 2}) {
    EXPECT_EQ(constraints[static_cast<std::size_t>(b)].inEdges.size(), 1u);
    EXPECT_EQ(constraints[static_cast<std::size_t>(b)].outEdges.size(), 1u);
  }
  // Join: two in-edges, one out (exit).
  EXPECT_EQ(constraints[3].inEdges.size(), 2u);
  EXPECT_EQ(constraints[3].outEdges.size(), 1u);
  EXPECT_TRUE(cfg.edge(constraints[3].outEdges[0]).isExit());
}

// Paper Fig. 3: while loop.  x2 = d2+d4 = d3+d5 (header has two in, two
// out).
TEST(Structural, PaperFig3WhileLoop) {
  const auto c = codegen::compileSource(
      "int q;\nint r;\n"
      "void f(int p) { q = p; while (q < 10) { __loopbound(0, 10); "
      "q = q + 1; } r = q; }");
  Analyzer analyzer(c, "f");
  const auto constraints = analyzer.flowConstraints(0);
  ASSERT_EQ(constraints.size(), 4u);
  // Header block (id 1): entry edge from preheader + back edge in; body
  // edge + exit edge out.
  EXPECT_EQ(constraints[1].inEdges.size(), 2u);
  EXPECT_EQ(constraints[1].outEdges.size(), 2u);
}

// Paper Fig. 4: function calls via f-edges; callee entry count equals
// the sum of call-edge counts (eq 12), root entry equals 1 (eq 13).
TEST(Structural, PaperFig4CallEdges) {
  const auto c = codegen::compileSource(
      "int sink;\n"
      "void store(int i) { sink = i; }\n"
      "void f() { int i; int n; i = 10; store(i); n = 2 * i; store(n); }");
  Analyzer analyzer(c, "f");
  const auto& cfg = analyzer.cfgOf(1);
  std::vector<int> labels;
  for (const auto& e : cfg.edges()) {
    const int label = analyzer.fLabel(1, e.id);
    if (label > 0) labels.push_back(label);
  }
  EXPECT_EQ(labels.size(), 2u);  // f1 and f2
  // Two contexts of store(), one per call site.
  int storeContexts = 0;
  for (const auto& ctx : analyzer.contexts()) {
    if (ctx.function == 0) ++storeContexts;
  }
  EXPECT_EQ(storeContexts, 2);

  // The estimate counts store()'s body exactly twice.
  const Estimate e = analyzer.estimate();
  std::int64_t storeBody = 0;
  for (const auto& row : e.worstCounts) {
    if (row.function == 0 && row.block == 0) storeBody = row.count;
  }
  EXPECT_EQ(storeBody, 2);
}

TEST(Structural, DumpHasPaperShape) {
  const auto c = codegen::compileSource(
      "int q;\nvoid f(int p) { if (p) { q = 1; } else { q = 2; } }");
  Analyzer analyzer(c, "f");
  const std::string dump = analyzer.structuralConstraintsStr(0);
  EXPECT_NE(dump.find("x0 = d0 ="), std::string::npos);
  EXPECT_NE(dump.find("+"), std::string::npos);
}

// ---------------------------------------------------------------------
// Estimation basics.

TEST(Analyzer, StraightLineBoundsBracketSimulation) {
  const auto c = codegen::compileSource(
      "int f() { int a; a = 3; a = a * 7; return a + 1; }");
  Analyzer analyzer(c, "f");
  const Estimate e = analyzer.estimate();
  sim::Simulator simulator(c.module);
  const auto r = simulator.run(0, {});
  EXPECT_LE(e.bound.lo, r.cycles);
  EXPECT_GE(e.bound.hi, r.cycles);
  EXPECT_EQ(sim::decodeInt(r.returnValue), 22);
}

TEST(Analyzer, LoopBoundScalesLinearly) {
  const auto makeSource = [](int n) {
    return "int f() { int i; int s; s = 0; for (i = 0; i < " +
           std::to_string(n) + "; i = i + 1) { __loopbound(" +
           std::to_string(n) + ", " + std::to_string(n) +
           "); s = s + i; } return s; }";
  };
  const auto c10 = codegen::compileSource(makeSource(10));
  const auto c20 = codegen::compileSource(makeSource(20));
  const auto e10 = Analyzer(c10, "f").estimate();
  const auto e20 = Analyzer(c20, "f").estimate();
  // Doubling the trip count roughly doubles the bound (plus prologue).
  EXPECT_GT(e20.bound.hi, e10.bound.hi + (e10.bound.hi / 2));
  EXPECT_LT(e20.bound.hi, 3 * e10.bound.hi);
}

TEST(Analyzer, MissingLoopBoundIsReported) {
  const auto c = codegen::compileSource(
      "int f(int x) { while (x > 0) { x = x - 1; } return x; }");
  Analyzer analyzer(c, "f");
  EXPECT_THROW((void)analyzer.estimate(), AnalysisError);
}

TEST(Analyzer, SetLoopBoundSubstitutesForAnnotation) {
  const char* source =
      "int f(int x) { while (x > 0) { x = x - 1; } return x; }";
  const auto c = codegen::compileSource(source);
  Analyzer analyzer(c, "f");
  analyzer.setLoopBound("f", 1, 0, 8);
  const Estimate e = analyzer.estimate();
  EXPECT_GT(e.bound.hi, 0);
  sim::Simulator simulator(c.module);
  const auto r = simulator.run(0, std::vector<std::int64_t>{8});
  EXPECT_GE(e.bound.hi, r.cycles);
  EXPECT_LE(e.bound.lo, r.cycles);
}

TEST(Analyzer, SetLoopBoundValidatesRange) {
  const auto c = codegen::compileSource("int f() { return 0; }");
  Analyzer analyzer(c, "f");
  EXPECT_THROW(analyzer.setLoopBound("f", 1, 5, 2), AnalysisError);
  EXPECT_THROW(analyzer.setLoopBound("f", 1, -1, 2), AnalysisError);
}

TEST(Analyzer, UnknownRootFails) {
  const auto c = codegen::compileSource("int f() { return 0; }");
  EXPECT_THROW(Analyzer(c, "nope"), AnalysisError);
}

TEST(Analyzer, ZeroTripLoopAllowsSkip) {
  const auto c = codegen::compileSource(
      "int f(int x) { int s; s = 0; while (x > 0) { __loopbound(0, 4); "
      "s = s + 1; x = x - 1; } return s; }");
  Analyzer analyzer(c, "f");
  const Estimate e = analyzer.estimate();
  sim::Simulator simulator(c.module);
  const auto skip = simulator.run(0, std::vector<std::int64_t>{0});
  const auto full = simulator.run(0, std::vector<std::int64_t>{4});
  EXPECT_LE(e.bound.lo, skip.cycles);
  EXPECT_GE(e.bound.hi, full.cycles);
}

// ---------------------------------------------------------------------
// Functionality constraints.

// A tiny branchy loop used by the constraint tests; the then-branch body
// sits alone on line 7.
constexpr const char* kBranchyLoop =
    "int t[8];\n"                                 // 1
    "int f() {\n"                                 // 2
    "  int i; int s; s = 0;\n"                    // 3
    "  for (i = 0; i < 8; i = i + 1) {\n"         // 4
    "    __loopbound(8, 8);\n"                    // 5
    "    if (t[i] > 0) {\n"                       // 6
    "      s = s + t[i] * t[i] * t[i];\n"         // 7
    "    }\n"                                     // 8
    "  }\n"                                       // 9
    "  return s;\n"                               // 10
    "}\n";                                        // 11

TEST(Analyzer, EqualityConstraintTightensWorstCase) {
  // Without path information the ILP takes the expensive branch on all 8
  // iterations; the constraint allows it at most twice.
  const auto c = codegen::compileSource(kBranchyLoop);
  Analyzer plain(c, "f");
  Analyzer constrained(c, "f");
  constrained.addConstraint("@7 <= 2");
  const auto free = plain.estimate();
  const auto tight = constrained.estimate();
  EXPECT_LT(tight.bound.hi, free.bound.hi);
  EXPECT_EQ(tight.bound.lo, free.bound.lo);
}

TEST(Analyzer, DisjunctionTakesMaxOverSets) {
  const auto c = codegen::compileSource(kBranchyLoop);
  Analyzer analyzer(c, "f");
  analyzer.addConstraint("@7 = 0 | @7 = 3");
  const Estimate e = analyzer.estimate();
  EXPECT_EQ(e.stats.constraintSets, 2);
  EXPECT_EQ(e.stats.prunedNullSets, 0);

  Analyzer exact(c, "f");
  exact.addConstraint("@7 = 3");
  EXPECT_EQ(e.bound.hi, exact.estimate().bound.hi);
}

TEST(Analyzer, NullSetsArePruned) {
  const auto c = codegen::compileSource(kBranchyLoop);
  Analyzer analyzer(c, "f");
  // "body >= 1 and body = 0" is null; the other disjunct survives.
  analyzer.addConstraint("(@7 >= 1 & @7 = 0) | (@7 <= 8)");
  const Estimate e = analyzer.estimate();
  EXPECT_EQ(e.stats.constraintSets, 2);
  EXPECT_EQ(e.stats.prunedNullSets, 1);
}

TEST(Analyzer, AllSetsNullThrows) {
  const auto c = codegen::compileSource("int f() { return 1; }");
  Analyzer analyzer(c, "f");
  analyzer.addConstraint("x0 = 0 & x0 = 1");
  EXPECT_THROW((void)analyzer.estimate(), AnalysisError);
}

TEST(Analyzer, UnknownReferenceThrows) {
  const auto c = codegen::compileSource("int f() { return 1; }");
  {
    Analyzer analyzer(c, "f");
    analyzer.addConstraint("g.x0 = 1");
    EXPECT_THROW((void)analyzer.estimate(), AnalysisError);
  }
  {
    Analyzer analyzer(c, "f");
    analyzer.addConstraint("x99 = 1");
    EXPECT_THROW((void)analyzer.estimate(), AnalysisError);
  }
  {
    Analyzer analyzer(c, "f");
    analyzer.addConstraint("@999 = 1");
    EXPECT_THROW((void)analyzer.estimate(), AnalysisError);
  }
}

TEST(Analyzer, CallerCalleeConstraint) {
  // The paper's eq (18): a callee block count tied to a specific call
  // site, x8.f1 in paper syntax, callee.x?[f1] in ours.
  const char* source =
      "int t[4];\n"                              // 1
      "int check(int v) {\n"                     // 2
      "  if (v < 0) {\n"                         // 3
      "    return 0;\n"                          // 4
      "  }\n"                                    // 5
      "  return 1;\n"                            // 6
      "}\n"                                      // 7
      "void task() {\n"                          // 8
      "  int s; int i; s = 0;\n"                 // 9
      "  for (i = 0; i < 4; i = i + 1) {\n"      // 10
      "    __loopbound(4, 4);\n"                 // 11
      "    s = s + check(t[i]);\n"               // 12
      "  }\n"                                    // 13
      "}\n";                                     // 14
  const auto c = codegen::compileSource(source);
  Analyzer analyzer(c, "task");
  // The negative branch of check() at this call site fires at most once.
  analyzer.addConstraint("check@4[f1] <= 1");
  const Estimate e = analyzer.estimate();
  Analyzer plain(c, "task");
  const Estimate freeBound = plain.estimate();
  EXPECT_LE(e.bound.hi, freeBound.bound.hi);
}

TEST(Analyzer, RecursionRejected) {
  lang::Program p = lang::parse("void f() { }\nvoid g() { f(); }");
  lang::analyze(p);
  codegen::CompileResult c = codegen::compile(p);
  // Forge a recursive call f -> f by rewriting the call target.
  for (auto& in : c.module.function(1).code) {
    if (in.op == vm::Opcode::Call) in.imm = 1;
  }
  EXPECT_THROW(Analyzer(c, "g"), AnalysisError);
}

// ---------------------------------------------------------------------
// Section IV refinement: first-iteration split.

TEST(FirstIterSplit, TightensCacheBoundSoundly) {
  const char* source =
      "int data[64];\n"
      "int f() { int i; int acc; acc = 0; "
      "for (i = 0; i < 64; i = i + 1) { __loopbound(64, 64); "
      "acc = acc + data[i]; } return acc; }";
  const auto c = codegen::compileSource(source);
  Analyzer plain(c, "f");
  AnalyzerOptions opt;
  opt.cacheMode = CacheMode::FirstIterationSplit;
  Analyzer split(c, "f", opt);
  const Estimate eps = plain.estimate();
  const Estimate es = split.estimate();

  EXPECT_LT(es.bound.hi, eps.bound.hi);
  EXPECT_EQ(es.bound.lo, eps.bound.lo);  // refinement affects worst only

  // Soundness: the simulated cold-cache run still fits.
  sim::Simulator simulator(c.module);
  const auto r = simulator.run(0, {});
  EXPECT_GE(es.bound.hi, r.cycles);
  EXPECT_LE(es.bound.lo, r.cycles);
}

TEST(FirstIterSplit, HandlesCallsInterprocedurally) {
  // Loop + callee fit the cache together, so the refinement applies to
  // the callee's context too (interprocedural extension of Section IV).
  const char* source =
      "int acc;\n"
      "void bump() { acc = acc + 1; }\n"
      "void f() { int i; for (i = 0; i < 8; i = i + 1) { "
      "__loopbound(8, 8); bump(); } }";
  const auto c = codegen::compileSource(source);
  Analyzer plain(c, "f");
  AnalyzerOptions opt;
  opt.cacheMode = CacheMode::FirstIterationSplit;
  Analyzer split(c, "f", opt);
  const Estimate es = split.estimate();
  EXPECT_LT(es.bound.hi, plain.estimate().bound.hi);
  // Soundness against the simulator.
  sim::Simulator simulator(c.module);
  const auto r = simulator.run(*c.module.findFunction("f"), {});
  EXPECT_GE(es.bound.hi, r.cycles);
}

// ---------------------------------------------------------------------
// Context-insensitive mode (the paper's base formulation, eq 12).

TEST(ContextInsensitive, Fig4EntryIsSumOfCallEdges) {
  const auto c = codegen::compileSource(
      "int sink;\n"
      "void store(int i) { sink = i; }\n"
      "void f() { int i; int n; i = 10; store(i); n = 2 * i; store(n); }");
  AnalyzerOptions opt;
  opt.contextSensitive = false;
  Analyzer analyzer(c, "f", opt);
  // Exactly one context per reachable function.
  EXPECT_EQ(analyzer.contexts().size(), 2u);
  const Estimate e = analyzer.estimate();
  // store()'s body still counted twice: d_entry = f1 + f2.
  std::int64_t storeBody = 0;
  for (const auto& row : e.worstCounts) {
    if (row.function == 0 && row.block == 0) storeBody = row.count;
  }
  EXPECT_EQ(storeBody, 2);
}

TEST(ContextInsensitive, BoundsMatchSensitiveWithoutContextFacts) {
  // Without context-qualified constraints the two formulations bound the
  // same path space.
  const char* source =
      "int t[8];\n"
      "int leaf(int v) { if (v > 0) { return v * v; } return 0; }\n"
      "int f() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { "
      "__loopbound(8, 8); s = s + leaf(t[i]) + leaf(s); } return s; }";
  const auto c = codegen::compileSource(source);
  Analyzer sensitive(c, "f");
  AnalyzerOptions opt;
  opt.contextSensitive = false;
  Analyzer insensitive(c, "f", opt);
  EXPECT_EQ(sensitive.estimate().bound, insensitive.estimate().bound);
  EXPECT_GT(sensitive.contexts().size(), insensitive.contexts().size());
}

TEST(ContextInsensitive, RejectsContextQualifiedConstraints) {
  const auto c = codegen::compileSource(
      "void leaf() { }\n"
      "void f() { leaf(); }");
  AnalyzerOptions opt;
  opt.contextSensitive = false;
  Analyzer analyzer(c, "f", opt);
  analyzer.addConstraint("leaf.x0[f1] = 1");
  EXPECT_THROW((void)analyzer.estimate(), AnalysisError);
}

TEST(ContextInsensitive, SoundOnSimulatedRuns) {
  const char* source =
      "int acc;\n"
      "void bump(int k) { acc = acc + k; }\n"
      "int f(int n) { int i; acc = 0; for (i = 0; i < n; i = i + 1) { "
      "__loopbound(0, 12); bump(i); bump(i * 2); } return acc; }";
  const auto c = codegen::compileSource(source);
  AnalyzerOptions opt;
  opt.contextSensitive = false;
  Analyzer analyzer(c, "f", opt);
  const Estimate e = analyzer.estimate();
  sim::Simulator simulator(c.module);
  for (const std::int64_t n : {0, 5, 12}) {
    const auto r = simulator.run(*c.module.findFunction("f"),
                                 std::vector<std::int64_t>{n});
    EXPECT_LE(e.bound.lo, r.cycles);
    EXPECT_GE(e.bound.hi, r.cycles);
  }
}

// ---------------------------------------------------------------------
// The cache-conflict-graph mode (the paper's announced "current work").

TEST(ConflictGraph, TightensLoopMissesToOnePerLine) {
  const char* source =
      "int data[64];\n"
      "int f() { int i; int acc; acc = 0; "
      "for (i = 0; i < 64; i = i + 1) { __loopbound(64, 64); "
      "acc = acc + data[i]; } return acc; }";
  const auto c = codegen::compileSource(source);
  Analyzer plain(c, "f");
  AnalyzerOptions opt;
  opt.cacheMode = CacheMode::ConflictGraph;
  Analyzer ccg(c, "f", opt);
  const Estimate ep = plain.estimate();
  const Estimate eg = ccg.estimate();
  EXPECT_LT(eg.bound.hi, ep.bound.hi);
  EXPECT_GT(eg.stats.cacheFlowVars, 0);
  // Soundness vs the cold-cache simulation.
  sim::Simulator simulator(c.module);
  const auto r = simulator.run(0, {});
  EXPECT_GE(eg.bound.hi, r.cycles);
  // The whole program fits the cache, so the CCG bound should be close
  // to the measurement (every line misses exactly once).
  EXPECT_LT(eg.bound.hi, r.cycles + r.cycles / 4);
}

TEST(ConflictGraph, DetectsConflictingFunctions) {
  // Two loop bodies laid out a cache-size apart conflict; the CCG must
  // charge re-misses, staying above the (thrashing) simulation.
  std::string filler;
  for (int i = 0; i < 128; ++i) filler += "a = a + 1;";
  const std::string source =
      "int pad(int a) { " + filler + " return a; }\n" +
      "int g(int a) { return a + 1; }\n" +
      "int f() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { "
      "__loopbound(10, 10); s = pad(s); s = g(s); } return s; }";
  const auto c = codegen::compileSource(source);
  AnalyzerOptions opt;
  opt.cacheMode = CacheMode::ConflictGraph;
  Analyzer ccg(c, "f", opt);
  const Estimate eg = ccg.estimate();
  sim::Simulator simulator(c.module);
  const auto r = simulator.run(*c.module.findFunction("f"), {});
  EXPECT_GE(eg.bound.hi, r.cycles);
}

TEST(ConflictGraph, OversizedBlockFallsBackPerSet) {
  // A straight-line block longer than the whole cache puts two lines of
  // the same set into one block: those sets must fall back to all-miss.
  std::string body;
  for (int i = 0; i < 200; ++i) body += "s = s + " + std::to_string(i) + ";";
  const std::string source = "int f() { int s; s = 0; " + body +
                             " return s; }";
  const auto c = codegen::compileSource(source);
  AnalyzerOptions opt;
  opt.cacheMode = CacheMode::ConflictGraph;
  Analyzer ccg(c, "f", opt);
  const Estimate eg = ccg.estimate();
  EXPECT_GT(eg.stats.cacheFallbackSets, 0);
  sim::Simulator simulator(c.module);
  const auto r = simulator.run(0, {});
  EXPECT_GE(eg.bound.hi, r.cycles);
}

TEST(ConflictGraph, NodeCapForcesFallback) {
  const char* source =
      "int data[64];\n"
      "int f() { int i; int acc; acc = 0; "
      "for (i = 0; i < 64; i = i + 1) { __loopbound(64, 64); "
      "acc = acc + data[i]; } return acc; }";
  const auto c = codegen::compileSource(source);
  AnalyzerOptions opt;
  opt.cacheMode = CacheMode::ConflictGraph;
  opt.conflictGraphNodeCap = 0;  // force fallback everywhere
  Analyzer capped(c, "f", opt);
  Analyzer plain(c, "f");
  const Estimate ec = capped.estimate();
  EXPECT_GT(ec.stats.cacheFallbackSets, 0);
  EXPECT_EQ(ec.stats.cacheFlowVars, 0);
  // With every set on fallback, the bound degenerates to all-miss.
  EXPECT_EQ(ec.bound.hi, plain.estimate().bound.hi);
}

TEST(FirstIterSplit, SkipsLoopsWhoseCalleeOverflowsCache) {
  // The callee alone exceeds the 512-byte cache: lines conflict, so the
  // split must not fire anywhere in this loop.
  std::string filler;
  for (int i = 0; i < 200; ++i) filler += "acc = acc + 1;";
  const std::string source =
      "int acc;\n"
      "void big() { " + filler + " }\n" +
      "void f() { int i; for (i = 0; i < 8; i = i + 1) { "
      "__loopbound(8, 8); big(); } }";
  const auto c = codegen::compileSource(source);
  Analyzer plain(c, "f");
  AnalyzerOptions opt;
  opt.cacheMode = CacheMode::FirstIterationSplit;
  Analyzer split(c, "f", opt);
  EXPECT_EQ(plain.estimate().bound.hi, split.estimate().bound.hi);
}

TEST(FirstIterSplit, SkipsLoopsLargerThanCache) {
  // A loop body larger than the 512-byte cache self-evicts; the split
  // must not be applied.
  std::string body;
  for (int i = 0; i < 200; ++i) {
    body += "acc = acc + " + std::to_string(i) + ";\n";
  }
  const std::string source =
      "int f() { int i; int acc; acc = 0; "
      "for (i = 0; i < 4; i = i + 1) { __loopbound(4, 4);\n" +
      body + "} return acc; }";
  const auto c = codegen::compileSource(source);
  Analyzer plain(c, "f");
  AnalyzerOptions opt;
  opt.cacheMode = CacheMode::FirstIterationSplit;
  Analyzer split(c, "f", opt);
  EXPECT_EQ(plain.estimate().bound.hi, split.estimate().bound.hi);
}

// ---------------------------------------------------------------------
// The analyzer builds its ILP system once and shares it between calls;
// a mutation must rebuild it, so a mutated analyzer answers like a
// fresh one given the same inputs.
void expectSameAnswers(const Analyzer& mutated, const Analyzer& fresh) {
  const Analyzer::SystemDigests a = mutated.systemDigests();
  const Analyzer::SystemDigests b = fresh.systemDigests();
  EXPECT_EQ(a.structural, b.structural);
  EXPECT_EQ(a.full, b.full);
  const Estimate ea = mutated.estimate();
  const Estimate eb = fresh.estimate();
  EXPECT_EQ(ea.bound, eb.bound);
  EXPECT_EQ(ea.stats.constraintSets, eb.stats.constraintSets);
  EXPECT_EQ(ea.stats.totalPivots, eb.stats.totalPivots);
}

TEST(SharedSystem, AddConstraintAfterUseRebuilds) {
  const auto c = codegen::compileSource(
      "int q;\nint r;\n"
      "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }");
  Analyzer mutated(c, "f");
  const Analyzer::SystemDigests before = mutated.systemDigests();
  const Estimate unconstrained = mutated.estimate();
  mutated.addConstraint("x1 = 0");

  Analyzer fresh(c, "f");
  fresh.addConstraint("x1 = 0");
  expectSameAnswers(mutated, fresh);
  EXPECT_NE(mutated.systemDigests().full, before.full);
  EXPECT_NE(mutated.estimate().bound, unconstrained.bound);
}

TEST(SharedSystem, SetLoopBoundAfterUseRebuilds) {
  const auto c = codegen::compileSource(
      "int f(int x) { while (x > 0) { x = x - 1; } return x; }");
  Analyzer mutated(c, "f");
  mutated.setLoopBound("f", 1, 0, 8);
  const Analyzer::SystemDigests before = mutated.systemDigests();
  const Estimate wide = mutated.estimate();
  mutated.setLoopBound("f", 1, 0, 4);

  Analyzer fresh(c, "f");
  fresh.setLoopBound("f", 1, 0, 4);
  expectSameAnswers(mutated, fresh);
  EXPECT_NE(mutated.systemDigests().structural, before.structural);
  EXPECT_LT(mutated.estimate().bound.hi, wide.bound.hi);
}

}  // namespace
}  // namespace cinderella::ipet
