// Hand-written lexer for MiniC.
#pragma once

#include <string_view>
#include <vector>

#include "cinderella/lang/token.hpp"

namespace cinderella::lang {

/// Tokenizes `source`; throws ParseError on malformed input.  The final
/// token always has kind End.  Token texts view `source`, so it must
/// outlive the returned tokens.
[[nodiscard]] std::vector<Token> lex(std::string_view source);

}  // namespace cinderella::lang
