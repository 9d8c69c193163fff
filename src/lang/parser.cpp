#include "cinderella/lang/parser.hpp"

#include <utility>

#include "cinderella/lang/lexer.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella::lang {

namespace {

class Parser {
 public:
  /// `source` must outlive the parser: tokens view it.
  explicit Parser(std::string_view source) : tokens_(lex(source)) {}

  Program run() {
    while (!at(TokenKind::End)) parseTopLevel();
    return std::move(program_);
  }

 private:
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  [[nodiscard]] bool at(TokenKind kind) const { return peek().kind == kind; }

  const Token& advance() { return tokens_[pos_++]; }

  const Token& expect(TokenKind kind, const char* context) {
    if (!at(kind)) {
      fail(std::string("expected ") + tokenKindName(kind) + " " + context +
           ", found " + tokenKindName(peek().kind));
    }
    return advance();
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("parse error at " + peek().loc.str() + ": " + message);
  }

  bool atType() const {
    return at(TokenKind::KwInt) || at(TokenKind::KwFloat);
  }

  Type parseType() {
    if (at(TokenKind::KwInt)) {
      advance();
      return Type::Int;
    }
    if (at(TokenKind::KwFloat)) {
      advance();
      return Type::Float;
    }
    fail("expected a type");
  }

  // -------------------------------------------------------------------
  // Top level.

  void parseTopLevel() {
    const SourceLoc loc = peek().loc;
    Type type = Type::Void;
    if (at(TokenKind::KwVoid)) {
      advance();
    } else {
      type = parseType();
    }
    const Token& nameTok = expect(TokenKind::Identifier, "after type");
    if (at(TokenKind::LParen)) {
      parseFunctionRest(type, nameTok.text, loc);
    } else {
      if (type == Type::Void) fail("global variables cannot be void");
      parseGlobalRest(type, nameTok.text, loc);
    }
  }

  void parseGlobalRest(Type type, std::string_view name, SourceLoc loc) {
    GlobalDecl g;
    g.name = name;
    g.type = type;
    g.loc = loc;
    if (at(TokenKind::LBracket)) {
      advance();
      const Token& size = expect(TokenKind::IntLiteral, "as array size");
      if (size.intValue <= 0) fail("array size must be positive");
      g.arraySize = static_cast<int>(size.intValue);
      expect(TokenKind::RBracket, "after array size");
    }
    if (at(TokenKind::Assign)) {
      advance();
      if (at(TokenKind::LBrace)) {
        if (g.arraySize == 0) fail("brace initializer requires an array");
        advance();
        while (!at(TokenKind::RBrace)) {
          g.init.push_back(parseNumericLiteral());
          if (!at(TokenKind::RBrace)) expect(TokenKind::Comma, "in initializer");
        }
        advance();
        if (static_cast<int>(g.init.size()) > g.arraySize) {
          fail("too many initializer values for '" + g.name + "'");
        }
      } else {
        if (g.arraySize != 0) fail("array initializer must be brace-enclosed");
        g.init.push_back(parseNumericLiteral());
      }
    }
    expect(TokenKind::Semicolon, "after global declaration");
    program_.globals.push_back(std::move(g));
  }

  double parseNumericLiteral() {
    double sign = 1.0;
    if (at(TokenKind::Minus)) {
      advance();
      sign = -1.0;
    }
    if (at(TokenKind::IntLiteral)) {
      return sign * static_cast<double>(advance().intValue);
    }
    if (at(TokenKind::FloatLiteral)) {
      return sign * advance().floatValue;
    }
    fail("expected a numeric literal");
  }

  void parseFunctionRest(Type returnType, std::string_view name,
                         SourceLoc loc) {
    FunctionDecl fn;
    fn.name = name;
    fn.returnType = returnType;
    fn.loc = loc;
    expect(TokenKind::LParen, "after function name");
    if (at(TokenKind::KwVoid) && peek(1).kind == TokenKind::RParen) {
      advance();  // `(void)` parameter list
    }
    while (!at(TokenKind::RParen)) {
      Param p;
      p.loc = peek().loc;
      p.type = parseType();
      p.name = expect(TokenKind::Identifier, "as parameter name").text;
      if (at(TokenKind::LBracket)) {
        fail("array parameters are not supported; use a global array");
      }
      fn.params.push_back(std::move(p));
      if (!at(TokenKind::RParen)) expect(TokenKind::Comma, "in parameter list");
    }
    advance();  // ')'
    fn.body = parseBlock();
    fn.endLine = lastLine_;
    program_.functions.push_back(std::move(fn));
  }

  // -------------------------------------------------------------------
  // Statements.

  Stmt* parseBlock() {
    Stmt* block = program_.newStmt(StmtKind::Block, peek().loc);
    expect(TokenKind::LBrace, "to open block");
    while (!at(TokenKind::RBrace)) {
      block->body.push_back(parseStmt());
    }
    lastLine_ = peek().loc.line;
    advance();  // '}'
    return block;
  }

  Stmt* parseStmt() {
    if (at(TokenKind::LBrace)) return parseBlock();
    if (atType()) return parseDecl();
    if (at(TokenKind::KwIf)) return parseIf();
    if (at(TokenKind::KwWhile)) return parseWhile();
    if (at(TokenKind::KwFor)) return parseFor();
    if (at(TokenKind::KwReturn)) return parseReturn();
    if (at(TokenKind::KwLoopBound)) {
      fail("__loopbound must be the first statement of a loop body");
    }
    Stmt* stmt = parseAssignOrCall();
    expect(TokenKind::Semicolon, "after statement");
    return stmt;
  }

  Stmt* parseDecl() {
    Stmt* stmt = program_.newStmt(StmtKind::Decl, peek().loc);
    stmt->declType = parseType();
    stmt->declName = expect(TokenKind::Identifier, "as variable name").text;
    if (at(TokenKind::LBracket)) {
      advance();
      const Token& size = expect(TokenKind::IntLiteral, "as array size");
      if (size.intValue <= 0) fail("array size must be positive");
      stmt->declArraySize = static_cast<int>(size.intValue);
      expect(TokenKind::RBracket, "after array size");
    }
    if (at(TokenKind::Assign)) {
      if (stmt->declArraySize != 0) {
        fail("local array initializers are not supported");
      }
      advance();
      stmt->value = parseExpr();
    }
    expect(TokenKind::Semicolon, "after declaration");
    return stmt;
  }

  Stmt* parseIf() {
    Stmt* stmt = program_.newStmt(StmtKind::If, peek().loc);
    advance();  // 'if'
    expect(TokenKind::LParen, "after 'if'");
    stmt->cond = parseExpr();
    expect(TokenKind::RParen, "after condition");
    stmt->body.push_back(parseStmt());
    if (at(TokenKind::KwElse)) {
      advance();
      stmt->elseBody.push_back(parseStmt());
    }
    return stmt;
  }

  /// Parses a loop body block, extracting a leading `__loopbound(lo,hi);`
  /// annotation into (*lo, *hi).
  Stmt* parseLoopBody(std::int64_t* lo, std::int64_t* hi) {
    if (!at(TokenKind::LBrace)) fail("loop body must be a brace-enclosed block");
    Stmt* block = program_.newStmt(StmtKind::Block, peek().loc);
    advance();  // '{'
    if (at(TokenKind::KwLoopBound)) {
      advance();
      expect(TokenKind::LParen, "after '__loopbound'");
      const Token& loTok = expect(TokenKind::IntLiteral, "as loop lower bound");
      expect(TokenKind::Comma, "between loop bounds");
      const Token& hiTok = expect(TokenKind::IntLiteral, "as loop upper bound");
      expect(TokenKind::RParen, "after loop bounds");
      expect(TokenKind::Semicolon, "after __loopbound(...)");
      if (loTok.intValue < 0 || hiTok.intValue < loTok.intValue) {
        fail("invalid loop bounds: require 0 <= lo <= hi");
      }
      *lo = loTok.intValue;
      *hi = hiTok.intValue;
    }
    while (!at(TokenKind::RBrace)) {
      block->body.push_back(parseStmt());
    }
    lastLine_ = peek().loc.line;
    advance();  // '}'
    return block;
  }

  Stmt* parseWhile() {
    Stmt* stmt = program_.newStmt(StmtKind::While, peek().loc);
    advance();  // 'while'
    expect(TokenKind::LParen, "after 'while'");
    stmt->cond = parseExpr();
    expect(TokenKind::RParen, "after condition");
    stmt->body.push_back(parseLoopBody(&stmt->loopLo, &stmt->loopHi));
    return stmt;
  }

  Stmt* parseFor() {
    Stmt* stmt = program_.newStmt(StmtKind::For, peek().loc);
    advance();  // 'for'
    expect(TokenKind::LParen, "after 'for'");
    if (!at(TokenKind::Semicolon)) stmt->init = parseAssignOrCall();
    expect(TokenKind::Semicolon, "after for-initializer");
    if (!at(TokenKind::Semicolon)) stmt->cond = parseExpr();
    expect(TokenKind::Semicolon, "after for-condition");
    if (!at(TokenKind::RParen)) stmt->step = parseAssignOrCall();
    expect(TokenKind::RParen, "after for-step");
    stmt->body.push_back(parseLoopBody(&stmt->loopLo, &stmt->loopHi));
    return stmt;
  }

  Stmt* parseReturn() {
    Stmt* stmt = program_.newStmt(StmtKind::Return, peek().loc);
    advance();  // 'return'
    if (!at(TokenKind::Semicolon)) stmt->value = parseExpr();
    expect(TokenKind::Semicolon, "after return");
    return stmt;
  }

  /// `ident = expr`, `ident[expr] = expr`, or `ident(args)`.
  Stmt* parseAssignOrCall() {
    const Token& nameTok = expect(TokenKind::Identifier, "at statement start");
    if (at(TokenKind::LParen)) {
      Stmt* stmt = program_.newStmt(StmtKind::ExprStmt, nameTok.loc);
      stmt->value = parseCallRest(nameTok);
      return stmt;
    }

    Stmt* stmt = program_.newStmt(StmtKind::Assign, nameTok.loc);
    stmt->targetName = nameTok.text;
    if (at(TokenKind::LBracket)) {
      advance();
      stmt->targetIndex = parseExpr();
      expect(TokenKind::RBracket, "after array index");
    }
    expect(TokenKind::Assign, "in assignment");
    stmt->value = parseExpr();
    return stmt;
  }

  // -------------------------------------------------------------------
  // Expressions (precedence climbing).

  Expr* parseExpr() { return parseBinary(0); }

  /// Returns the binary operator at the cursor and its precedence, or
  /// nullopt-equivalent (-1) when none applies.
  int binaryPrec(TokenKind kind, BinaryOp* op) const {
    switch (kind) {
      case TokenKind::PipePipe: *op = BinaryOp::LogOr; return 1;
      case TokenKind::AmpAmp: *op = BinaryOp::LogAnd; return 2;
      case TokenKind::Pipe: *op = BinaryOp::BitOr; return 3;
      case TokenKind::Caret: *op = BinaryOp::BitXor; return 4;
      case TokenKind::Amp: *op = BinaryOp::BitAnd; return 5;
      case TokenKind::Eq: *op = BinaryOp::Eq; return 6;
      case TokenKind::Ne: *op = BinaryOp::Ne; return 6;
      case TokenKind::Lt: *op = BinaryOp::Lt; return 7;
      case TokenKind::Le: *op = BinaryOp::Le; return 7;
      case TokenKind::Gt: *op = BinaryOp::Gt; return 7;
      case TokenKind::Ge: *op = BinaryOp::Ge; return 7;
      case TokenKind::Shl: *op = BinaryOp::Shl; return 8;
      case TokenKind::Shr: *op = BinaryOp::Shr; return 8;
      case TokenKind::Plus: *op = BinaryOp::Add; return 9;
      case TokenKind::Minus: *op = BinaryOp::Sub; return 9;
      case TokenKind::Star: *op = BinaryOp::Mul; return 10;
      case TokenKind::Slash: *op = BinaryOp::Div; return 10;
      case TokenKind::Percent: *op = BinaryOp::Rem; return 10;
      default: return -1;
    }
  }

  Expr* parseBinary(int minPrec) {
    Expr* lhs = parseUnary();
    while (true) {
      BinaryOp op;
      const int prec = binaryPrec(peek().kind, &op);
      if (prec < 0 || prec < minPrec) return lhs;
      const SourceLoc loc = peek().loc;
      advance();
      Expr* rhs = parseBinary(prec + 1);  // all operators left-associative
      Expr* node = program_.newExpr(ExprKind::Binary, loc);
      node->bop = op;
      node->lhs = lhs;
      node->rhs = rhs;
      lhs = node;
    }
  }

  Expr* parseUnary() {
    const SourceLoc loc = peek().loc;
    UnaryOp op;
    if (at(TokenKind::Minus)) {
      op = UnaryOp::Neg;
    } else if (at(TokenKind::Bang)) {
      op = UnaryOp::LogNot;
    } else if (at(TokenKind::Tilde)) {
      op = UnaryOp::BitNot;
    } else {
      return parsePrimary();
    }
    advance();
    Expr* node = program_.newExpr(ExprKind::Unary, loc);
    node->uop = op;
    node->lhs = parseUnary();
    return node;
  }

  Expr* parsePrimary() {
    const Token& tok = peek();
    switch (tok.kind) {
      case TokenKind::IntLiteral: {
        advance();
        return program_.makeIntLit(tok.intValue, tok.loc);
      }
      case TokenKind::FloatLiteral: {
        advance();
        Expr* e = program_.newExpr(ExprKind::FloatLit, tok.loc);
        e->floatValue = tok.floatValue;
        e->type = Type::Float;
        return e;
      }
      case TokenKind::LParen: {
        advance();
        Expr* e = parseExpr();
        expect(TokenKind::RParen, "after parenthesized expression");
        return e;
      }
      case TokenKind::Identifier: {
        advance();
        if (at(TokenKind::LParen)) return parseCallRest(tok);
        Expr* e = program_.newExpr(
            at(TokenKind::LBracket) ? ExprKind::Index : ExprKind::VarRef,
            tok.loc);
        e->name = tok.text;
        if (e->kind == ExprKind::Index) {
          advance();
          e->lhs = parseExpr();
          expect(TokenKind::RBracket, "after array index");
        }
        return e;
      }
      default:
        fail(std::string("unexpected ") + tokenKindName(tok.kind) +
             " in expression");
    }
  }

  Expr* parseCallRest(const Token& nameTok) {
    Expr* e = program_.newExpr(ExprKind::Call, nameTok.loc);
    e->name = nameTok.text;
    expect(TokenKind::LParen, "after callee name");
    while (!at(TokenKind::RParen)) {
      e->args.push_back(parseExpr());
      if (!at(TokenKind::RParen)) expect(TokenKind::Comma, "in argument list");
    }
    advance();  // ')'
    return e;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  Program program_;
  int lastLine_ = 0;
};

}  // namespace

Program parse(std::string_view source) { return Parser(source).run(); }

}  // namespace cinderella::lang
