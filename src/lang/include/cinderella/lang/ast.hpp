// Abstract syntax tree for MiniC.
//
// MiniC is the restricted-C dialect the analysis consumes, matching the
// paper's program model (Kligerman/Stoyenko, Puschner/Koza restrictions):
//   - scalar types `int` (64-bit) and `float` (IEEE double),
//   - one-dimensional arrays with compile-time sizes,
//   - functions with scalar parameters and scalar/void returns,
//   - structured control flow only (if/else, while, for),
//   - no pointers, no dynamic allocation, recursion rejected,
//   - every loop annotated `__loopbound(lo, hi)` as the first statement
//     of its body (the paper's mandatory annotation).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cinderella/support/source_location.hpp"

namespace cinderella::lang {

enum class Type { Int, Float, Void };

[[nodiscard]] const char* typeName(Type type);

/// Where a resolved symbol lives.  Location indices are assigned by the
/// code generator.
enum class Storage { Global, Local, Param };

/// A resolved variable (scalar or array).  Owned by the enclosing
/// Program/FunctionDecl symbol tables; AST nodes reference it.
struct Symbol {
  std::string name;
  Type type = Type::Int;
  bool isArray = false;
  int arraySize = 0;  // elements; 0 for scalars
  Storage storage = Storage::Global;
  /// Code generator slot: global word offset, frame word offset, or
  /// parameter/register index, depending on `storage`.
  int location = -1;
};

// ---------------------------------------------------------------------------
// Expressions.

enum class UnaryOp { Neg, LogNot, BitNot };
enum class BinaryOp {
  Add, Sub, Mul, Div, Rem,
  BitAnd, BitOr, BitXor, Shl, Shr,
  Eq, Ne, Lt, Le, Gt, Ge,
  LogAnd, LogOr,
};

[[nodiscard]] const char* binaryOpName(BinaryOp op);

enum class ExprKind {
  IntLit,    // intValue
  FloatLit,  // floatValue
  VarRef,    // name/symbol (scalar read)
  Index,     // name/symbol + index (array element read)
  Unary,     // uop, lhs
  Binary,    // bop, lhs, rhs
  Call,      // name, args; calleeIndex resolved by sema
  Cast,      // lhs cast to `type` (inserted by sema for int<->float)
};

struct Expr {
  ExprKind kind = ExprKind::IntLit;
  SourceLoc loc;
  /// Result type; filled in by semantic analysis.
  Type type = Type::Int;

  std::int64_t intValue = 0;
  double floatValue = 0.0;
  std::string name;
  Symbol* symbol = nullptr;  // resolved VarRef/Index target

  UnaryOp uop = UnaryOp::Neg;
  BinaryOp bop = BinaryOp::Add;
  Expr* lhs = nullptr;  // unary operand / binary lhs / index expr / cast operand
  Expr* rhs = nullptr;  // binary rhs

  std::vector<Expr*> args;  // call arguments
  int calleeIndex = -1;     // resolved function index
};

// ---------------------------------------------------------------------------
// Statements.

enum class StmtKind {
  Block,     // body
  Decl,      // local declaration: declSymbol (owned by function), optional init
  Assign,    // target (+ optional targetIndex) = value
  ExprStmt,  // expression evaluated for effect (calls)
  If,        // cond, body, elseBody
  While,     // cond, body, loop bounds
  For,       // init (Assign), cond, step (Assign), body, loop bounds
  Return,    // optional value
};

struct Stmt {
  StmtKind kind = StmtKind::Block;
  SourceLoc loc;

  std::vector<Stmt*> body;
  std::vector<Stmt*> elseBody;

  Expr* cond = nullptr;
  Expr* value = nullptr;  // assign rhs / return value / expr-stmt expr

  // Assignment target.
  std::string targetName;
  Symbol* targetSymbol = nullptr;
  Expr* targetIndex = nullptr;  // null for scalar targets

  // Local declaration.
  std::string declName;
  Type declType = Type::Int;
  int declArraySize = 0;
  Symbol* declSymbol = nullptr;

  // For-loop clauses.
  Stmt* init = nullptr;
  Stmt* step = nullptr;

  // Loop bound annotation (While/For); -1 = not provided.
  std::int64_t loopLo = -1;
  std::int64_t loopHi = -1;
};

// ---------------------------------------------------------------------------
// Top level.

struct Param {
  std::string name;
  Type type = Type::Int;
  SourceLoc loc;
};

struct GlobalDecl {
  std::string name;
  Type type = Type::Int;
  int arraySize = 0;          // 0 => scalar
  std::vector<double> init;   // literal initializer values (may be empty)
  SourceLoc loc;
  std::unique_ptr<Symbol> symbol;  // created by sema
};

struct FunctionDecl {
  std::string name;
  Type returnType = Type::Void;
  std::vector<Param> params;
  Stmt* body = nullptr;  // Block
  SourceLoc loc;
  int endLine = 0;  // last source line of the function body
  /// All symbols (params + locals) owned by this function; created by sema.
  std::vector<std::unique_ptr<Symbol>> symbols;
};

/// A translation unit.  It owns every Expr/Stmt node of its AST: child
/// links are plain pointers into the program's node arena, valid for as
/// long as the Program lives (moving it keeps them valid).  Move-only,
/// since a copy's links would still point into the original.
struct Program {
  Program() = default;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  std::vector<GlobalDecl> globals;
  std::vector<FunctionDecl> functions;

  [[nodiscard]] int findFunction(std::string_view name) const;

  /// A default node of `kind` at `loc`, owned by this program.
  [[nodiscard]] Expr* newExpr(ExprKind kind, SourceLoc loc);
  [[nodiscard]] Stmt* newStmt(StmtKind kind, SourceLoc loc);
  [[nodiscard]] Expr* makeIntLit(std::int64_t value, SourceLoc loc = {});

 private:
  /// Append-only node storage in fixed chunks, so a node never moves.
  template <class Node>
  struct Arena {
    static constexpr std::size_t kChunk = 64;
    std::vector<std::unique_ptr<Node[]>> chunks;
    std::size_t used = 0;  // nodes handed out from chunks.back()

    Node& make() {
      if (chunks.empty() || used == kChunk) {
        chunks.push_back(std::make_unique<Node[]>(kChunk));
        used = 0;
      }
      return chunks.back()[used++];
    }
  };
  Arena<Expr> exprs_;
  Arena<Stmt> stmts_;
};

}  // namespace cinderella::lang
