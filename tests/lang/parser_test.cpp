// Unit tests for the MiniC parser.
#include <gtest/gtest.h>

#include <type_traits>

#include "cinderella/lang/parser.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella::lang {
namespace {

// The AST's child links point into the Program's own node arena.
static_assert(!std::is_copy_constructible_v<Program>);
static_assert(!std::is_copy_assignable_v<Program>);
static_assert(std::is_move_constructible_v<Program>);

TEST(Parser, GlobalScalarDeclarations) {
  const Program p = parse("int a;\nfloat b = 2.5;\nint c = -3;");
  ASSERT_EQ(p.globals.size(), 3u);
  EXPECT_EQ(p.globals[0].name, "a");
  EXPECT_EQ(p.globals[0].type, Type::Int);
  EXPECT_TRUE(p.globals[0].init.empty());
  EXPECT_EQ(p.globals[1].type, Type::Float);
  ASSERT_EQ(p.globals[1].init.size(), 1u);
  EXPECT_DOUBLE_EQ(p.globals[1].init[0], 2.5);
  EXPECT_DOUBLE_EQ(p.globals[2].init[0], -3.0);
}

TEST(Parser, GlobalArrayWithInitializer) {
  const Program p = parse("int t[4] = {1, -2, 3};");
  ASSERT_EQ(p.globals.size(), 1u);
  EXPECT_EQ(p.globals[0].arraySize, 4);
  ASSERT_EQ(p.globals[0].init.size(), 3u);
  EXPECT_DOUBLE_EQ(p.globals[0].init[1], -2.0);
}

TEST(Parser, TooManyInitializersFails) {
  EXPECT_THROW(parse("int t[2] = {1, 2, 3};"), ParseError);
}

TEST(Parser, ZeroSizedArrayFails) {
  EXPECT_THROW(parse("int t[0];"), ParseError);
}

TEST(Parser, FunctionWithParams) {
  const Program p = parse("int f(int a, float b) { return a; }");
  ASSERT_EQ(p.functions.size(), 1u);
  const FunctionDecl& f = p.functions[0];
  EXPECT_EQ(f.name, "f");
  EXPECT_EQ(f.returnType, Type::Int);
  ASSERT_EQ(f.params.size(), 2u);
  EXPECT_EQ(f.params[0].name, "a");
  EXPECT_EQ(f.params[1].type, Type::Float);
}

TEST(Parser, VoidParameterList) {
  const Program p = parse("void f(void) { }");
  EXPECT_TRUE(p.functions[0].params.empty());
}

TEST(Parser, ArrayParameterFails) {
  EXPECT_THROW(parse("void f(int a[]) { }"), ParseError);
}

TEST(Parser, IfElseChain) {
  const Program p = parse(
      "void f(int x) { if (x) { x = 1; } else if (x > 2) { x = 2; } }");
  const Stmt& ifStmt = *p.functions[0].body->body[0];
  EXPECT_EQ(ifStmt.kind, StmtKind::If);
  ASSERT_EQ(ifStmt.elseBody.size(), 1u);
  EXPECT_EQ(ifStmt.elseBody[0]->kind, StmtKind::If);
}

TEST(Parser, WhileLoopBoundExtraction) {
  const Program p = parse(
      "void f(int x) { while (x) { __loopbound(2, 9); x = x - 1; } }");
  const Stmt& loop = *p.functions[0].body->body[0];
  EXPECT_EQ(loop.kind, StmtKind::While);
  EXPECT_EQ(loop.loopLo, 2);
  EXPECT_EQ(loop.loopHi, 9);
}

TEST(Parser, ForLoopClauses) {
  const Program p = parse(
      "void f() { int i; for (i = 0; i < 4; i = i + 1) { __loopbound(4, 4); } }");
  const Stmt& loop = *p.functions[0].body->body[1];
  EXPECT_EQ(loop.kind, StmtKind::For);
  ASSERT_NE(loop.init, nullptr);
  ASSERT_NE(loop.cond, nullptr);
  ASSERT_NE(loop.step, nullptr);
  EXPECT_EQ(loop.loopLo, 4);
  EXPECT_EQ(loop.loopHi, 4);
}

TEST(Parser, LoopWithoutBoundIsAllowedSyntactically) {
  // The bound becomes mandatory only at analysis time.
  const Program p = parse("void f(int x) { while (x) { x = x - 1; } }");
  EXPECT_EQ(p.functions[0].body->body[0]->loopLo, -1);
}

TEST(Parser, LoopBodyMustBeBlock) {
  EXPECT_THROW(parse("void f(int x) { while (x) x = x - 1; }"), ParseError);
}

TEST(Parser, LoopBoundOutsideLoopFails) {
  EXPECT_THROW(parse("void f() { __loopbound(1, 2); }"), ParseError);
}

TEST(Parser, LoopBoundNotFirstFails) {
  EXPECT_THROW(
      parse("void f(int x) { while (x) { x = x - 1; __loopbound(1, 2); } }"),
      ParseError);
}

TEST(Parser, InvalidLoopBoundsFail) {
  EXPECT_THROW(parse("void f(int x) { while (x) { __loopbound(5, 2); } }"),
               ParseError);
}

TEST(Parser, PrecedenceMulOverAdd) {
  const Program p = parse("int f() { return 1 + 2 * 3; }");
  const Expr& e = *p.functions[0].body->body[0]->value;
  EXPECT_EQ(e.bop, BinaryOp::Add);
  EXPECT_EQ(e.rhs->bop, BinaryOp::Mul);
}

TEST(Parser, PrecedenceShiftBelowCompare) {
  // a < b << c parses as a < (b << c).
  const Program p = parse("int f(int a, int b, int c) { return a < b << c; }");
  const Expr& e = *p.functions[0].body->body[0]->value;
  EXPECT_EQ(e.bop, BinaryOp::Lt);
  EXPECT_EQ(e.rhs->bop, BinaryOp::Shl);
}

TEST(Parser, LeftAssociativity) {
  // a - b - c parses as (a - b) - c.
  const Program p = parse("int f(int a, int b, int c) { return a - b - c; }");
  const Expr& e = *p.functions[0].body->body[0]->value;
  EXPECT_EQ(e.bop, BinaryOp::Sub);
  EXPECT_EQ(e.lhs->bop, BinaryOp::Sub);
}

TEST(Parser, UnaryOperators) {
  const Program p = parse("int f(int a) { return -a + !a + ~a; }");
  EXPECT_EQ(p.functions[0].body->body[0]->kind, StmtKind::Return);
}

TEST(Parser, ArrayIndexAssignment) {
  const Program p = parse("int t[4];\nvoid f(int i) { t[i + 1] = 2; }");
  const Stmt& s = *p.functions[0].body->body[0];
  EXPECT_EQ(s.kind, StmtKind::Assign);
  EXPECT_EQ(s.targetName, "t");
  ASSERT_NE(s.targetIndex, nullptr);
}

TEST(Parser, CallStatementAndExpression) {
  const Program p = parse(
      "int g(int x) { return x; }\n"
      "void f() { int a; g(1); a = g(2) + g(3); }");
  const auto& body = p.functions[1].body->body;
  EXPECT_EQ(body[1]->kind, StmtKind::ExprStmt);
  EXPECT_EQ(body[1]->value->kind, ExprKind::Call);
  EXPECT_EQ(body[2]->kind, StmtKind::Assign);
}

TEST(Parser, MissingSemicolonFails) {
  EXPECT_THROW(parse("void f() { int a }"), ParseError);
}

TEST(Parser, UnbalancedParensFail) {
  EXPECT_THROW(parse("int f() { return (1 + 2; }"), ParseError);
}

TEST(Parser, StatementCannotStartWithLiteral) {
  EXPECT_THROW(parse("void f() { 42; }"), ParseError);
}

TEST(Parser, LocalDeclWithInit) {
  const Program p = parse("void f() { int a = 5; float b = 1.5; }");
  const auto& body = p.functions[0].body->body;
  EXPECT_EQ(body[0]->kind, StmtKind::Decl);
  ASSERT_NE(body[0]->value, nullptr);
}

TEST(Parser, LocalArrayInitializerFails) {
  EXPECT_THROW(parse("void f() { int a[3] = 1; }"), ParseError);
}

}  // namespace
}  // namespace cinderella::lang
