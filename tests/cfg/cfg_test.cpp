// CFG construction tests, including the paper's Figs 2-4 examples whose
// structural constraints are asserted verbatim in ipet tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "cinderella/cfg/callgraph.hpp"
#include "cinderella/cfg/cfg.hpp"
#include "cinderella/cfg/dominators.hpp"
#include "cinderella/cfg/loops.hpp"
#include "cinderella/codegen/codegen.hpp"

namespace cinderella::cfg {
namespace {

codegen::CompileResult compiled(std::string_view source) {
  return codegen::compileSource(source);
}

TEST(Cfg, StraightLineIsOneBlock) {
  const auto c = compiled("int f() { int a; a = 1; a = a + 2; return a; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  EXPECT_EQ(g.numBlocks(), 1);
  // Entry edge plus one exit edge.
  EXPECT_EQ(g.numEdges(), 2);
  EXPECT_TRUE(g.block(0).isExit);
}

TEST(Cfg, IfThenElseShape) {
  // The paper's Fig. 2: four blocks (cond, then, else, join).
  const auto c = compiled(
      "int q;\nint r;\n"
      "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  ASSERT_EQ(g.numBlocks(), 4);
  // Cond block has two successors; join has two predecessors.
  EXPECT_EQ(g.successors(0).size(), 2u);
  const int join = 3;
  EXPECT_EQ(g.predecessors(join).size(), 2u);
  // Then/else both flow into the join.
  for (const int b : {1, 2}) {
    const auto succ = g.successors(b);
    ASSERT_EQ(succ.size(), 1u);
    EXPECT_EQ(succ[0], join);
  }
}

TEST(Cfg, WhileLoopShape) {
  // The paper's Fig. 3: preheader, header, body, exit.
  const auto c = compiled(
      "int q;\nint r;\n"
      "void f(int p) { q = p; while (q < 10) { __loopbound(0, 10); "
      "q = q + 1; } r = q; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  ASSERT_EQ(g.numBlocks(), 4);
  const DominatorTree dom(g);
  const auto loops = findLoops(g, dom);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].header, 1);
  EXPECT_EQ(loops[0].blocks.size(), 2u);  // header + body
  ASSERT_EQ(loops[0].entryEdges.size(), 1u);
  EXPECT_EQ(g.edge(loops[0].entryEdges[0]).from, 0);
}

TEST(Cfg, CallSplitsBlockAndTagsEdge) {
  // The paper's Fig. 4: calls terminate blocks; the edge to the
  // continuation is an f-edge pointing at the callee.
  const auto c = compiled(
      "int g(int x) { return x; }\n"
      "void f() { int a; a = g(1); a = g(a); }");
  const ControlFlowGraph g = buildCfg(c.module, 1);
  int callEdges = 0;
  for (const auto& e : g.edges()) {
    if (e.isCall()) {
      ++callEdges;
      EXPECT_EQ(e.callee, 0);
    }
  }
  EXPECT_EQ(callEdges, 2);
  EXPECT_GE(g.numBlocks(), 3);
}

TEST(Cfg, EntryAndExitEdges) {
  const auto c = compiled(
      "int f(int x) { if (x) { return 1; } else { return 2; } }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  const Edge& entry = g.edge(g.entryEdge());
  EXPECT_TRUE(entry.isEntry());
  EXPECT_EQ(entry.to, 0);
  // Two returns plus the synthesized fall-off return (unreachable).
  EXPECT_GE(g.exitEdges().size(), 2u);
  for (const int e : g.exitEdges()) {
    EXPECT_TRUE(g.edge(e).isExit());
  }
}

TEST(Cfg, BlockOfInstrIsConsistent) {
  const auto c = compiled(
      "int f(int x) { int s; s = 0; while (x > 0) { __loopbound(0, 9); "
      "s = s + x; x = x - 1; } return s; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  for (const auto& b : g.blocks()) {
    for (int i = b.firstInstr; i <= b.lastInstr; ++i) {
      EXPECT_EQ(g.blockOfInstr(i), b.id);
    }
  }
}

TEST(Cfg, FlowConservationHoldsStructurally) {
  // Every non-boundary edge appears exactly once as a successor and once
  // as a predecessor.
  const auto c = compiled(
      "int f(int x) { int s; s = 0; if (x) { s = 1; } while (s < 5) { "
      "__loopbound(0, 5); s = s + 1; } return s; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  std::vector<int> asSucc(static_cast<std::size_t>(g.numEdges()), 0);
  std::vector<int> asPred(static_cast<std::size_t>(g.numEdges()), 0);
  for (const auto& b : g.blocks()) {
    for (const int e : b.succEdges) ++asSucc[static_cast<std::size_t>(e)];
    for (const int e : b.predEdges) ++asPred[static_cast<std::size_t>(e)];
  }
  for (const auto& e : g.edges()) {
    EXPECT_EQ(asSucc[static_cast<std::size_t>(e.id)], e.isEntry() ? 0 : 1);
    EXPECT_EQ(asPred[static_cast<std::size_t>(e.id)], e.isExit() ? 0 : 1);
  }
}

TEST(Dominators, LinearChain) {
  const auto c = compiled(
      "int f(int x) { if (x) { x = 1; } if (x) { x = 2; } return x; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  const DominatorTree dom(g);
  // Entry dominates everything.
  for (int b = 0; b < g.numBlocks(); ++b) {
    if (dom.reachable(b)) {
      EXPECT_TRUE(dom.dominates(0, b));
    }
  }
  EXPECT_EQ(dom.idom(0), -1);
}

TEST(Dominators, BranchArmsDoNotDominateJoin) {
  const auto c = compiled(
      "int f(int x) { int q; if (x) { q = 1; } else { q = 2; } return q; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  const DominatorTree dom(g);
  EXPECT_FALSE(dom.dominates(1, 3));
  EXPECT_FALSE(dom.dominates(2, 3));
  EXPECT_TRUE(dom.dominates(0, 3));
  EXPECT_EQ(dom.idom(3), 0);
}

TEST(Dominators, SelfDominates) {
  const auto c = compiled("int f() { return 1; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  const DominatorTree dom(g);
  EXPECT_TRUE(dom.dominates(0, 0));
}

TEST(Loops, NestedLoopsFound) {
  const auto c = compiled(
      "int f() { int i; int j; int s; s = 0; "
      "for (i = 0; i < 3; i = i + 1) { __loopbound(3, 3); "
      "for (j = 0; j < 3; j = j + 1) { __loopbound(3, 3); s = s + 1; } } "
      "return s; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  const DominatorTree dom(g);
  const auto loops = findLoops(g, dom);
  ASSERT_EQ(loops.size(), 2u);
  // One loop contains the other.
  const auto& outer =
      loops[0].blocks.size() > loops[1].blocks.size() ? loops[0] : loops[1];
  const auto& inner =
      loops[0].blocks.size() > loops[1].blocks.size() ? loops[1] : loops[0];
  for (const int b : inner.blocks) {
    EXPECT_TRUE(outer.contains(b));
  }
  EXPECT_FALSE(inner.contains(outer.header));
}

TEST(Loops, HeaderDominatesMembers) {
  const auto c = compiled(
      "int f(int x) { while (x > 0) { __loopbound(0, 5); "
      "if (x > 2) { x = x - 2; } else { x = x - 1; } } return x; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  const DominatorTree dom(g);
  const auto loops = findLoops(g, dom);
  ASSERT_EQ(loops.size(), 1u);
  for (const int b : loops[0].blocks) {
    EXPECT_TRUE(dom.dominates(loops[0].header, b));
  }
}

TEST(CallGraph, CalleesAndOrder) {
  const auto c = compiled(
      "void a() { }\n"
      "void b() { a(); }\n"
      "void d() { b(); a(); }");
  const CallGraph cg(c.module);
  EXPECT_FALSE(cg.hasCycle());
  EXPECT_TRUE(cg.callees(0).empty());
  EXPECT_EQ(cg.callees(2), (std::vector<int>{0, 1}));
  const auto order = cg.bottomUpOrder(2);
  // Callees must precede callers.
  const auto pos = [&](int f) {
    return std::find(order.begin(), order.end(), f) - order.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(1), pos(2));
}

TEST(Cfg, DumpMentionsBlocksAndEdges) {
  const auto c = compiled("int f(int x) { if (x) { x = 1; } return x; }");
  const ControlFlowGraph g = buildCfg(c.module, 0);
  const std::string dump = g.str(c.module);
  EXPECT_NE(dump.find("B0"), std::string::npos);
  EXPECT_NE(dump.find("d0"), std::string::npos);
  EXPECT_NE(dump.find("entry"), std::string::npos);
}

}  // namespace
}  // namespace cinderella::cfg
