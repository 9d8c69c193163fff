#include "cinderella/lang/lexer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <string>

#include "cinderella/support/error.hpp"

namespace cinderella::lang {

const char* tokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::End: return "end of input";
    case TokenKind::Identifier: return "identifier";
    case TokenKind::IntLiteral: return "integer literal";
    case TokenKind::FloatLiteral: return "float literal";
    case TokenKind::KwInt: return "'int'";
    case TokenKind::KwFloat: return "'float'";
    case TokenKind::KwVoid: return "'void'";
    case TokenKind::KwIf: return "'if'";
    case TokenKind::KwElse: return "'else'";
    case TokenKind::KwWhile: return "'while'";
    case TokenKind::KwFor: return "'for'";
    case TokenKind::KwReturn: return "'return'";
    case TokenKind::KwLoopBound: return "'__loopbound'";
    case TokenKind::LParen: return "'('";
    case TokenKind::RParen: return "')'";
    case TokenKind::LBrace: return "'{'";
    case TokenKind::RBrace: return "'}'";
    case TokenKind::LBracket: return "'['";
    case TokenKind::RBracket: return "']'";
    case TokenKind::Comma: return "','";
    case TokenKind::Semicolon: return "';'";
    case TokenKind::Assign: return "'='";
    case TokenKind::Plus: return "'+'";
    case TokenKind::Minus: return "'-'";
    case TokenKind::Star: return "'*'";
    case TokenKind::Slash: return "'/'";
    case TokenKind::Percent: return "'%'";
    case TokenKind::Amp: return "'&'";
    case TokenKind::Pipe: return "'|'";
    case TokenKind::Caret: return "'^'";
    case TokenKind::Tilde: return "'~'";
    case TokenKind::Shl: return "'<<'";
    case TokenKind::Shr: return "'>>'";
    case TokenKind::AmpAmp: return "'&&'";
    case TokenKind::PipePipe: return "'||'";
    case TokenKind::Bang: return "'!'";
    case TokenKind::Eq: return "'=='";
    case TokenKind::Ne: return "'!='";
    case TokenKind::Lt: return "'<'";
    case TokenKind::Le: return "'<='";
    case TokenKind::Gt: return "'>'";
    case TokenKind::Ge: return "'>='";
  }
  return "?";
}

namespace {

// Character classes of the C locale's <cctype>, one table lookup each.
enum : unsigned char { kSpace = 1, kDigit = 2, kHexDigit = 4, kIdentStart = 8 };

constexpr std::array<unsigned char, 256> kCharClass = [] {
  std::array<unsigned char, 256> table{};
  for (const unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[c] = kSpace;
  }
  for (int c = '0'; c <= '9'; ++c) table[c] = kDigit | kHexDigit;
  for (int c = 'a'; c <= 'z'; ++c) table[c] = kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = kIdentStart;
  for (const unsigned char c : std::string_view("abcdefABCDEF")) {
    table[c] |= kHexDigit;
  }
  table['_'] = kIdentStart;
  return table;
}();

bool is(char c, unsigned char classes) {
  return (kCharClass[static_cast<unsigned char>(c)] & classes) != 0;
}

constexpr std::pair<std::string_view, TokenKind> kKeywords[] = {
    {"int", TokenKind::KwInt},     {"float", TokenKind::KwFloat},
    {"void", TokenKind::KwVoid},   {"if", TokenKind::KwIf},
    {"else", TokenKind::KwElse},   {"while", TokenKind::KwWhile},
    {"for", TokenKind::KwFor},     {"return", TokenKind::KwReturn},
    {"__loopbound", TokenKind::KwLoopBound},
};

/// string_view equality compares lengths first, so most words are
/// rejected without touching their characters.
TokenKind wordKind(std::string_view word) {
  for (const auto& [keyword, kind] : kKeywords) {
    if (word == keyword) return kind;
  }
  return TokenKind::Identifier;
}

/// from_chars, falling back to strtoll/strtod (which clamp) when the
/// value is out of range.
std::int64_t parseInt(std::string_view digits, int base) {
  std::int64_t value = 0;
  if (std::from_chars(digits.data(), digits.data() + digits.size(), value,
                      base).ec == std::errc()) {
    return value;
  }
  return std::strtoll(std::string(digits).c_str(), nullptr, base);
}

double parseFloat(std::string_view text) {
  double value = 0.0;
  if (std::from_chars(text.data(), text.data() + text.size(), value).ec ==
      std::errc()) {
    return value;
  }
  return std::strtod(std::string(text).c_str(), nullptr);
}

[[noreturn]] void fail(SourceLoc loc, const std::string& message) {
  throw ParseError("lex error at " + loc.str() + ": " + message);
}

}  // namespace

std::vector<Token> lex(std::string_view source) {
  std::vector<Token> tokens;
  // Table I and generated programs lex to 0.2-0.6 tokens per byte.
  tokens.reserve(source.size() / 2 + 1);
  std::size_t i = 0;
  std::size_t lineStart = 0;  // columns count bytes from here
  int line = 1;
  const auto at = [&](std::size_t k) {
    return k < source.size() ? source[k] : '\0';
  };
  const auto newlines = [&](std::size_t from, std::size_t to) {
    for (; from < to; ++from) {
      if (source[from] == '\n') {
        ++line;
        lineStart = from + 1;
      }
    }
  };

  while (i < source.size()) {
    const SourceLoc loc{line, static_cast<int>(i - lineStart) + 1};
    const std::size_t start = i;
    const char c = source[i];

    if (is(c, kSpace)) {
      newlines(start, ++i);
      continue;
    }
    // Comments.
    if (c == '/' && at(i + 1) == '/') {
      i = std::min(source.find('\n', i), source.size());
      continue;
    }
    if (c == '/' && at(i + 1) == '*') {
      const std::size_t close = source.find("*/", i + 2);
      if (close == std::string_view::npos) {
        fail(loc, "unterminated block comment");
      }
      i = close + 2;
      newlines(start, close);
      continue;
    }

    if (is(c, kIdentStart)) {
      while (is(at(i), kIdentStart | kDigit)) ++i;
      const std::string_view word = source.substr(start, i - start);
      tokens.push_back({.kind = wordKind(word), .loc = loc, .text = word});
      continue;
    }

    if (is(c, kDigit)) {
      bool isFloat = false;
      const bool isHex = c == '0' && (at(i + 1) == 'x' || at(i + 1) == 'X');
      if (isHex) {
        i += 2;
        while (is(at(i), kHexDigit)) ++i;
        if (i == start + 2) fail(loc, "malformed hex literal");
      } else {
        while (is(at(i), kDigit)) ++i;
        if (at(i) == '.' && is(at(i + 1), kDigit)) {
          isFloat = true;
          i += 2;
          while (is(at(i), kDigit)) ++i;
        }
        if (at(i) == 'e' || at(i) == 'E') {
          const std::size_t look = at(i + 1) == '+' || at(i + 1) == '-' ? 2 : 1;
          if (is(at(i + look), kDigit)) {
            isFloat = true;
            i += look + 1;
            while (is(at(i), kDigit)) ++i;
          }
        }
      }
      const std::string_view text = source.substr(start, i - start);
      Token t{.kind = TokenKind::IntLiteral, .loc = loc};
      if (isFloat) {
        t.kind = TokenKind::FloatLiteral;
        t.floatValue = parseFloat(text);
      } else {
        t.intValue = isHex ? parseInt(text.substr(2), 16) : parseInt(text, 10);
      }
      tokens.push_back(t);
      continue;
    }

    ++i;
    // Consumes `second` when it follows.
    const auto next = [&](char second) {
      if (at(i) != second) return false;
      ++i;
      return true;
    };
    TokenKind kind;
    switch (c) {
      case '(': kind = TokenKind::LParen; break;
      case ')': kind = TokenKind::RParen; break;
      case '{': kind = TokenKind::LBrace; break;
      case '}': kind = TokenKind::RBrace; break;
      case '[': kind = TokenKind::LBracket; break;
      case ']': kind = TokenKind::RBracket; break;
      case ',': kind = TokenKind::Comma; break;
      case ';': kind = TokenKind::Semicolon; break;
      case '+': kind = TokenKind::Plus; break;
      case '-': kind = TokenKind::Minus; break;
      case '*': kind = TokenKind::Star; break;
      case '/': kind = TokenKind::Slash; break;
      case '%': kind = TokenKind::Percent; break;
      case '^': kind = TokenKind::Caret; break;
      case '~': kind = TokenKind::Tilde; break;
      case '&': kind = next('&') ? TokenKind::AmpAmp : TokenKind::Amp; break;
      case '|': kind = next('|') ? TokenKind::PipePipe : TokenKind::Pipe; break;
      case '!': kind = next('=') ? TokenKind::Ne : TokenKind::Bang; break;
      case '=': kind = next('=') ? TokenKind::Eq : TokenKind::Assign; break;
      case '<':
        kind = next('=')   ? TokenKind::Le
               : next('<') ? TokenKind::Shl
                           : TokenKind::Lt;
        break;
      case '>':
        kind = next('=')   ? TokenKind::Ge
               : next('>') ? TokenKind::Shr
                           : TokenKind::Gt;
        break;
      default:
        fail(loc, std::string("unexpected character '") + c + "'");
    }
    tokens.push_back({.kind = kind, .loc = loc});
  }

  tokens.push_back(
      {.kind = TokenKind::End,
       .loc = {line, static_cast<int>(source.size() - lineStart) + 1}});
  return tokens;
}

}  // namespace cinderella::lang
