#include "cinderella/lang/loop_inference.hpp"

namespace cinderella::lang {

namespace {

/// The symbol written by a simple scalar assignment, or null.
const Symbol* assignedScalar(const Stmt& stmt) {
  if (stmt.kind != StmtKind::Assign || stmt.targetIndex != nullptr) {
    return nullptr;
  }
  return stmt.targetSymbol;
}

/// True when any statement in `body` (recursively) writes `symbol`.
bool bodyWrites(const std::vector<Stmt*>& body, const Symbol* symbol);

bool stmtWrites(const Stmt& stmt, const Symbol* symbol) {
  switch (stmt.kind) {
    case StmtKind::Assign:
      return stmt.targetSymbol == symbol;
    case StmtKind::Block:
    case StmtKind::While:
      return bodyWrites(stmt.body, symbol);
    case StmtKind::If:
      return bodyWrites(stmt.body, symbol) ||
             bodyWrites(stmt.elseBody, symbol);
    case StmtKind::For:
      if (stmt.init && stmtWrites(*stmt.init, symbol)) return true;
      if (stmt.step && stmtWrites(*stmt.step, symbol)) return true;
      return bodyWrites(stmt.body, symbol);
    case StmtKind::Decl:
    case StmtKind::ExprStmt:
    case StmtKind::Return:
      // Calls cannot write a local scalar: MiniC has no pointers and
      // parameters are by value.  (Globals are excluded below.)
      return false;
  }
  return true;  // unreachable; be conservative
}

bool bodyWrites(const std::vector<Stmt*>& body, const Symbol* symbol) {
  for (const auto& s : body) {
    if (stmtWrites(*s, symbol)) return true;
  }
  return false;
}

std::optional<std::int64_t> intLiteral(const Expr* e) {
  if (e != nullptr && e->kind == ExprKind::IntLit) return e->intValue;
  return std::nullopt;
}

const Symbol* scalarRef(const Expr* e) {
  if (e != nullptr && e->kind == ExprKind::VarRef) return e->symbol;
  return nullptr;
}

/// True when a `return` anywhere inside `body` could leave the loop
/// before the counted exit.
bool bodyReturns(const std::vector<Stmt*>& body) {
  for (const auto& s : body) {
    switch (s->kind) {
      case StmtKind::Return:
        return true;
      case StmtKind::Block:
      case StmtKind::While:
        if (bodyReturns(s->body)) return true;
        break;
      case StmtKind::If:
        if (bodyReturns(s->body) || bodyReturns(s->elseBody)) return true;
        break;
      case StmtKind::For:
        if (bodyReturns(s->body)) return true;
        break;
      default:
        break;
    }
  }
  return false;
}

}  // namespace

std::optional<std::pair<std::int64_t, std::int64_t>> inferTripCount(
    const Stmt& forStmt) {
  if (forStmt.kind != StmtKind::For) return std::nullopt;
  if (!forStmt.init || !forStmt.cond || !forStmt.step) return std::nullopt;

  // init: i = C0
  const Symbol* iv = assignedScalar(*forStmt.init);
  if (iv == nullptr || iv->type != Type::Int) return std::nullopt;
  // Globals could be rewritten by calls inside the body; require a local
  // or parameter induction variable.
  if (iv->storage == Storage::Global) return std::nullopt;
  const auto c0 = intLiteral(forStmt.init->value);
  if (!c0) return std::nullopt;

  // cond: i REL C1
  const Expr& cond = *forStmt.cond;
  if (cond.kind != ExprKind::Binary) return std::nullopt;
  if (scalarRef(cond.lhs) != iv) return std::nullopt;
  const auto c1 = intLiteral(cond.rhs);
  if (!c1) return std::nullopt;

  // step: i = i + K  or  i = i - K
  if (assignedScalar(*forStmt.step) != iv) return std::nullopt;
  const Expr& stepExpr = *forStmt.step->value;
  if (stepExpr.kind != ExprKind::Binary) return std::nullopt;
  if (scalarRef(stepExpr.lhs) != iv) return std::nullopt;
  const auto kOpt = intLiteral(stepExpr.rhs);
  if (!kOpt) return std::nullopt;
  std::int64_t k = *kOpt;
  if (stepExpr.bop == BinaryOp::Sub) {
    k = -k;
  } else if (stepExpr.bop != BinaryOp::Add) {
    return std::nullopt;
  }
  if (k == 0) return std::nullopt;

  // The body (and nothing else) must leave i alone.
  if (bodyWrites(forStmt.body, iv)) return std::nullopt;

  const std::int64_t lo = *c0;
  const std::int64_t hi = *c1;
  auto ceilDiv = [](std::int64_t num, std::int64_t den) {
    return (num + den - 1) / den;
  };

  std::int64_t trips = 0;
  switch (cond.bop) {
    case BinaryOp::Lt:
      if (k <= 0) return std::nullopt;
      trips = lo < hi ? ceilDiv(hi - lo, k) : 0;
      break;
    case BinaryOp::Le:
      if (k <= 0) return std::nullopt;
      trips = lo <= hi ? ceilDiv(hi - lo + 1, k) : 0;
      break;
    case BinaryOp::Gt:
      if (k >= 0) return std::nullopt;
      trips = lo > hi ? ceilDiv(lo - hi, -k) : 0;
      break;
    case BinaryOp::Ge:
      if (k >= 0) return std::nullopt;
      trips = lo >= hi ? ceilDiv(lo - hi + 1, -k) : 0;
      break;
    case BinaryOp::Ne:
      // i != C1 terminates exactly when the step lands on C1.
      if ((hi - lo) % k != 0) return std::nullopt;
      if ((hi - lo) / k < 0) return std::nullopt;
      trips = (hi - lo) / k;
      break;
    default:
      return std::nullopt;
  }

  // A return inside the body can leave the loop before the counted
  // exit: the count is then only an upper bound.
  if (bodyReturns(forStmt.body)) return std::make_pair<std::int64_t>(0, trips);
  return std::make_pair(trips, trips);
}

}  // namespace cinderella::lang
