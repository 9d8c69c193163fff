#include "cinderella/lang/ast.hpp"

namespace cinderella::lang {

const char* typeName(Type type) {
  switch (type) {
    case Type::Int: return "int";
    case Type::Float: return "float";
    case Type::Void: return "void";
  }
  return "?";
}

const char* binaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Rem: return "%";
    case BinaryOp::BitAnd: return "&";
    case BinaryOp::BitOr: return "|";
    case BinaryOp::BitXor: return "^";
    case BinaryOp::Shl: return "<<";
    case BinaryOp::Shr: return ">>";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::LogAnd: return "&&";
    case BinaryOp::LogOr: return "||";
  }
  return "?";
}

Expr* Program::newExpr(ExprKind kind, SourceLoc loc) {
  Expr& e = exprs_.make();
  e.kind = kind;
  e.loc = loc;
  return &e;
}

Stmt* Program::newStmt(StmtKind kind, SourceLoc loc) {
  Stmt& s = stmts_.make();
  s.kind = kind;
  s.loc = loc;
  return &s;
}

Expr* Program::makeIntLit(std::int64_t value, SourceLoc loc) {
  Expr* e = newExpr(ExprKind::IntLit, loc);
  e->intValue = value;
  e->type = Type::Int;
  return e;
}

int Program::findFunction(std::string_view name) const {
  for (std::size_t i = 0; i < functions.size(); ++i) {
    if (functions[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace cinderella::lang
