// Token definitions for MiniC, the annotated source language analysed by
// cinderella-ipet.  MiniC mirrors the restricted-C program model of the
// paper: no pointers, no dynamic allocation, no recursion, and every loop
// carries a `__loopbound(lo, hi)` annotation.
#pragma once

#include <cstdint>
#include <string_view>

#include "cinderella/support/source_location.hpp"

namespace cinderella::lang {

enum class TokenKind {
  End,
  Identifier,
  IntLiteral,
  FloatLiteral,
  // Keywords.
  KwInt, KwFloat, KwVoid, KwIf, KwElse, KwWhile, KwFor, KwReturn,
  KwLoopBound,  // __loopbound
  // Punctuation.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Comma, Semicolon,
  // Operators.
  Assign,        // =
  Plus, Minus, Star, Slash, Percent,
  Amp, Pipe, Caret, Tilde, Shl, Shr,
  AmpAmp, PipePipe, Bang,
  Eq, Ne, Lt, Le, Gt, Ge,
};

[[nodiscard]] const char* tokenKindName(TokenKind kind);

/// `text` views the lexed source, which must outlive the token.
struct Token {
  TokenKind kind = TokenKind::End;
  SourceLoc loc;
  std::string_view text;   // identifier and keyword spelling
  std::int64_t intValue = 0;
  double floatValue = 0.0;
};

}  // namespace cinderella::lang
