#include "cinderella/lang/sema.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cinderella/support/error.hpp"

namespace cinderella::lang {

namespace {

[[noreturn]] void fail(SourceLoc loc, const std::string& message) {
  throw ParseError("semantic error at " + loc.str() + ": " + message);
}

class Analyzer {
 public:
  explicit Analyzer(Program& program) : program_(program) {}

  void run() {
    declareGlobals();
    // Duplicate-name check first, so calls may reference later functions.
    for (auto& fn : program_.functions) {
      if (program_.findFunction(fn.name) !=
          static_cast<int>(&fn - program_.functions.data())) {
        fail(fn.loc, "duplicate function '" + fn.name + "'");
      }
      if (globalScope_.contains(fn.name)) {
        fail(fn.loc, "function '" + fn.name + "' shadows a global variable");
      }
    }
    for (auto& fn : program_.functions) analyzeFunction(fn);
    rejectRecursion();
  }

 private:
  void declareGlobals() {
    for (auto& g : program_.globals) {
      if (globalScope_.contains(g.name)) {
        fail(g.loc, "duplicate global '" + g.name + "'");
      }
      auto sym = std::make_unique<Symbol>();
      sym->name = g.name;
      sym->type = g.type;
      sym->isArray = g.arraySize > 0;
      sym->arraySize = g.arraySize;
      sym->storage = Storage::Global;
      globalScope_[g.name] = sym.get();
      g.symbol = std::move(sym);
    }
  }

  void analyzeFunction(FunctionDecl& fn) {
    currentFn_ = &fn;
    locals_.clear();
    scopeStarts_.assign(1, 0);
    for (const auto& p : fn.params) {
      if (declaredInScope(p.name)) {
        fail(p.loc, "duplicate parameter '" + p.name + "'");
      }
      auto sym = std::make_unique<Symbol>();
      sym->name = p.name;
      sym->type = p.type;
      sym->storage = Storage::Param;
      locals_.push_back(sym.get());
      fn.symbols.push_back(std::move(sym));
    }
    analyzeStmt(*fn.body);
    currentFn_ = nullptr;
  }

  /// Wraps `expr` in a cast to `target` when its type differs.
  Expr* castTo(Expr* expr, Type target) {
    if (expr->type == target) return expr;
    CIN_REQUIRE(expr->type != Type::Void && target != Type::Void);
    Expr* cast = program_.newExpr(ExprKind::Cast, expr->loc);
    cast->type = target;
    cast->lhs = expr;
    return cast;
  }

  void openScope() { scopeStarts_.push_back(locals_.size()); }
  void closeScope() {
    locals_.resize(scopeStarts_.back());
    scopeStarts_.pop_back();
  }

  bool declaredInScope(const std::string& name) const {
    return std::any_of(
        locals_.begin() + static_cast<std::ptrdiff_t>(scopeStarts_.back()),
        locals_.end(), [&](const Symbol* s) { return s->name == name; });
  }

  Symbol* lookup(const std::string& name, SourceLoc loc) {
    for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
      if ((*it)->name == name) return *it;
    }
    const auto found = globalScope_.find(name);
    if (found != globalScope_.end()) return found->second;
    fail(loc, "unknown variable '" + name + "'");
  }

  void analyzeStmt(Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::Block: {
        openScope();
        for (auto& s : stmt.body) analyzeStmt(*s);
        closeScope();
        break;
      }
      case StmtKind::Decl: {
        if (declaredInScope(stmt.declName)) {
          fail(stmt.loc, "duplicate local '" + stmt.declName + "'");
        }
        auto sym = std::make_unique<Symbol>();
        sym->name = stmt.declName;
        sym->type = stmt.declType;
        sym->isArray = stmt.declArraySize > 0;
        sym->arraySize = stmt.declArraySize;
        sym->storage = Storage::Local;
        stmt.declSymbol = sym.get();
        locals_.push_back(sym.get());
        currentFn_->symbols.push_back(std::move(sym));
        if (stmt.value) {
          analyzeExpr(*stmt.value);
          requireScalar(*stmt.value);
          stmt.value = castTo(stmt.value, stmt.declType);
        }
        break;
      }
      case StmtKind::Assign: {
        Symbol* target = lookup(stmt.targetName, stmt.loc);
        stmt.targetSymbol = target;
        if (stmt.targetIndex) {
          if (!target->isArray) {
            fail(stmt.loc, "'" + stmt.targetName + "' is not an array");
          }
          analyzeExpr(*stmt.targetIndex);
          if (stmt.targetIndex->type != Type::Int) {
            fail(stmt.targetIndex->loc, "array index must be int");
          }
        } else if (target->isArray) {
          fail(stmt.loc, "cannot assign to whole array '" + stmt.targetName +
                             "'");
        }
        analyzeExpr(*stmt.value);
        requireScalar(*stmt.value);
        stmt.value = castTo(stmt.value, target->type);
        break;
      }
      case StmtKind::ExprStmt: {
        analyzeExpr(*stmt.value);
        break;
      }
      case StmtKind::If: {
        analyzeExpr(*stmt.cond);
        requireCondition(*stmt.cond);
        for (auto& s : stmt.body) analyzeStmt(*s);
        for (auto& s : stmt.elseBody) analyzeStmt(*s);
        break;
      }
      case StmtKind::While: {
        analyzeExpr(*stmt.cond);
        requireCondition(*stmt.cond);
        for (auto& s : stmt.body) analyzeStmt(*s);
        break;
      }
      case StmtKind::For: {
        // For-clauses live in an implicit scope around the body.
        openScope();
        if (stmt.init) analyzeStmt(*stmt.init);
        if (stmt.cond) {
          analyzeExpr(*stmt.cond);
          requireCondition(*stmt.cond);
        }
        if (stmt.step) analyzeStmt(*stmt.step);
        for (auto& s : stmt.body) analyzeStmt(*s);
        closeScope();
        break;
      }
      case StmtKind::Return: {
        if (currentFn_->returnType == Type::Void) {
          if (stmt.value) fail(stmt.loc, "void function returns a value");
        } else {
          if (!stmt.value) fail(stmt.loc, "non-void function needs a value");
          analyzeExpr(*stmt.value);
          requireScalar(*stmt.value);
          stmt.value = castTo(stmt.value, currentFn_->returnType);
        }
        break;
      }
    }
  }

  void requireScalar(const Expr& expr) {
    if (expr.type == Type::Void) {
      fail(expr.loc, "void value used where a scalar is required");
    }
  }

  void requireCondition(const Expr& expr) {
    if (expr.type != Type::Int) {
      fail(expr.loc, "condition must be int-valued");
    }
  }

  void analyzeExpr(Expr& expr) {
    switch (expr.kind) {
      case ExprKind::IntLit:
        expr.type = Type::Int;
        break;
      case ExprKind::FloatLit:
        expr.type = Type::Float;
        break;
      case ExprKind::VarRef: {
        Symbol* sym = lookup(expr.name, expr.loc);
        if (sym->isArray) {
          fail(expr.loc, "array '" + expr.name + "' used without an index");
        }
        expr.symbol = sym;
        expr.type = sym->type;
        break;
      }
      case ExprKind::Index: {
        Symbol* sym = lookup(expr.name, expr.loc);
        if (!sym->isArray) {
          fail(expr.loc, "'" + expr.name + "' is not an array");
        }
        expr.symbol = sym;
        analyzeExpr(*expr.lhs);
        if (expr.lhs->type != Type::Int) {
          fail(expr.lhs->loc, "array index must be int");
        }
        expr.type = sym->type;
        break;
      }
      case ExprKind::Unary: {
        analyzeExpr(*expr.lhs);
        requireScalar(*expr.lhs);
        switch (expr.uop) {
          case UnaryOp::Neg:
            expr.type = expr.lhs->type;
            break;
          case UnaryOp::LogNot:
          case UnaryOp::BitNot:
            if (expr.lhs->type != Type::Int) {
              fail(expr.loc, "operator requires an int operand");
            }
            expr.type = Type::Int;
            break;
        }
        break;
      }
      case ExprKind::Binary: {
        analyzeExpr(*expr.lhs);
        analyzeExpr(*expr.rhs);
        requireScalar(*expr.lhs);
        requireScalar(*expr.rhs);
        const bool anyFloat =
            expr.lhs->type == Type::Float || expr.rhs->type == Type::Float;
        switch (expr.bop) {
          case BinaryOp::Add:
          case BinaryOp::Sub:
          case BinaryOp::Mul:
          case BinaryOp::Div: {
            const Type t = anyFloat ? Type::Float : Type::Int;
            expr.lhs = castTo(expr.lhs, t);
            expr.rhs = castTo(expr.rhs, t);
            expr.type = t;
            break;
          }
          case BinaryOp::Rem:
          case BinaryOp::BitAnd:
          case BinaryOp::BitOr:
          case BinaryOp::BitXor:
          case BinaryOp::Shl:
          case BinaryOp::Shr:
          case BinaryOp::LogAnd:
          case BinaryOp::LogOr:
            if (anyFloat) {
              fail(expr.loc, std::string("operator '") + binaryOpName(expr.bop) +
                                 "' requires int operands");
            }
            expr.type = Type::Int;
            break;
          case BinaryOp::Eq:
          case BinaryOp::Ne:
          case BinaryOp::Lt:
          case BinaryOp::Le:
          case BinaryOp::Gt:
          case BinaryOp::Ge: {
            const Type t = anyFloat ? Type::Float : Type::Int;
            expr.lhs = castTo(expr.lhs, t);
            expr.rhs = castTo(expr.rhs, t);
            expr.type = Type::Int;
            break;
          }
        }
        break;
      }
      case ExprKind::Call: {
        const int callee = program_.findFunction(expr.name);
        if (callee < 0) fail(expr.loc, "unknown function '" + expr.name + "'");
        FunctionDecl& fn = program_.functions[static_cast<std::size_t>(callee)];
        if (expr.args.size() != fn.params.size()) {
          fail(expr.loc, "call to '" + expr.name + "' expects " +
                             std::to_string(fn.params.size()) + " arguments, got " +
                             std::to_string(expr.args.size()));
        }
        for (std::size_t i = 0; i < expr.args.size(); ++i) {
          analyzeExpr(*expr.args[i]);
          requireScalar(*expr.args[i]);
          expr.args[i] = castTo(expr.args[i], fn.params[i].type);
        }
        expr.calleeIndex = callee;
        expr.type = fn.returnType;
        if (currentFn_) {
          callEdges_[currentFn_->name].insert(fn.name);
        }
        break;
      }
      case ExprKind::Cast:
        CIN_REQUIRE(false && "cast nodes are only created by sema");
        break;
    }
  }

  /// The paper's program model forbids recursion; reject any call-graph
  /// cycle (including self-calls).
  void rejectRecursion() {
    enum class Mark { White, Grey, Black };
    std::map<std::string, Mark> marks;
    std::vector<std::string> stack;

    auto dfs = [&](auto&& self, const std::string& fn) -> void {
      marks[fn] = Mark::Grey;
      stack.push_back(fn);
      for (const auto& callee : callEdges_[fn]) {
        const Mark m = marks.count(callee) ? marks[callee] : Mark::White;
        if (m == Mark::Grey) {
          std::string cycle;
          for (const auto& f : stack) cycle += f + " -> ";
          throw AnalysisError("recursion is not supported: " + cycle + callee);
        }
        if (m == Mark::White) self(self, callee);
      }
      marks[fn] = Mark::Black;
      stack.pop_back();
    };

    for (const auto& fn : program_.functions) {
      if (!marks.count(fn.name)) dfs(dfs, fn.name);
    }
  }

  Program& program_;
  FunctionDecl* currentFn_ = nullptr;
  std::map<std::string, Symbol*> globalScope_;
  /// Local symbols in scope, innermost scope last; scope k holds the
  /// entries from scopeStarts_[k] on.
  std::vector<Symbol*> locals_;
  std::vector<std::size_t> scopeStarts_;
  std::map<std::string, std::set<std::string>> callEdges_;
};

}  // namespace

void analyze(Program& program) { Analyzer(program).run(); }

}  // namespace cinderella::lang
