// Frontend golden: a hash of every token the lexer produces and of
// everything the frontend hands to the analysis (the disassembled
// module, the function index map and the source loops), pinned for the
// Table I programs, 200 seeded fuzz programs and a list of edge inputs.
// Edge inputs that must fail are checked against their exact message.
//
// This pins what the frontend computes, not how it stores it: a change
// to the token, AST or arena representation must leave every entry as
// it is.  Do not re-pin this table for a performance change.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/fuzz/generator.hpp"
#include "cinderella/lang/lexer.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/vm/disasm.hpp"
#include "test_util/root_systems.hpp"

namespace cinderella {
namespace {

using test_util::Golden;
using test_util::Hashes;

struct FrontendHash : test_util::Fnv {
  void add(const lang::Token& t) {
    i64(static_cast<int>(t.kind));
    i64(t.loc.line);
    i64(t.loc.column);
    u64(t.text.size());
    for (const char c : t.text) byte(static_cast<unsigned char>(c));
    i64(t.intValue);
    f64(t.floatValue);
  }

  void add(const codegen::CompileResult& r) {
    str(vm::disasmModule(r.module));
    ints(r.functionIndex);
    u64(r.loops.size());
    for (const codegen::LoopAnnotation& loop : r.loops) {
      i64(loop.function);
      i64(loop.headerInstr);
      i64(loop.bodyInstr);
      i64(loop.backEdgeInstr);
      i64(loop.lo);
      i64(loop.hi);
      i64(loop.line);
    }
  }

  /// Every token of `source`, then its compiled module; both must
  /// succeed.
  void addSource(std::string_view source) {
    const std::vector<lang::Token> tokens = lang::lex(source);
    u64(tokens.size());
    for (const lang::Token& t : tokens) add(t);
    add(codegen::compileSource(source));
  }
};

Hashes suiteHashes() {
  Hashes actual;
  for (const suite::Benchmark& bench : suite::allBenchmarks()) {
    FrontendHash hash;
    hash.addSource(bench.source);
    actual.emplace_back(bench.name, hash.state);
  }
  return actual;
}

/// 200 generated programs, folded 50 to an entry.
Hashes fuzzHashes() {
  fuzz::ProgramGenerator generator;
  Hashes actual;
  for (std::uint64_t first = 1; first <= 200; first += 50) {
    FrontendHash hash;
    for (std::uint64_t seed = first; seed < first + 50; ++seed) {
      hash.addSource(generator.generate(seed).source);
    }
    actual.emplace_back("seeds " + std::to_string(first) + "-" +
                            std::to_string(first + 49),
                        hash.state);
  }
  return actual;
}

struct EdgeCase {
  const char* source;
  /// Exact lex / compile error, or "" when that stage must succeed.
  const char* lexError;
  const char* compileError;
};

constexpr EdgeCase kEdgeCases[] = {
    // Integer literals: in range, one past, and far past int64 (clamped).
    {"int x = 9223372036854775807;", "", ""},
    {"int x = 9223372036854775808;", "", ""},
    {"int f() { return 99999999999999999999999; }", "", ""},
    {"int x = 0x7fffffffffffffff;", "", ""},
    {"int x = 0XFFFFFFFFFFFFFFFFFF;", "", ""},
    {"int x = 0x1g;", "",
     "parse error at 1:12: expected ';' after global declaration, found "
     "identifier"},
    {"0x", "lex error at 1:1: malformed hex literal", ""},
    {"int x = 0x;", "lex error at 1:9: malformed hex literal", ""},
    // Float literals, including the ones strtod rounds to inf / 0.
    {"float x = 1.", "lex error at 1:12: unexpected character '.'", ""},
    {"1e+", "", "parse error at 1:1: expected a type"},
    {"float x = 1e+;", "",
     "parse error at 1:12: expected ';' after global declaration, found "
     "identifier"},
    {"float x = 2E-3;", "", ""},
    {"float x = 1.5e+07; float y = 0.000001;", "", ""},
    {"float x = 1e400; float y = 1e-400; float z = 4.9e-324;", "", ""},
    {"float x = 12345678901234567890.123456789e-5;", "", ""},
    // Comments and whitespace.
    {"/* a block\n   comment */ int x;\n// line\nint y;", "", ""},
    {"int a; /* spans\n\nlines */ int b;", "", ""},
    {"a /* never closed", "lex error at 1:3: unterminated block comment", ""},
    {"\v\f\rint\v x;\r\n\tfloat\f y;", "", ""},
    // Identifiers that start like keywords.
    {"int intx; int __loopbound2; int _if; int while2;", "", ""},
    {"intx", "", "parse error at 1:1: expected a type"},
    {"__loopbound2", "", "parse error at 1:1: expected a type"},
    {"void f() { int i; for (i = 0; i < 3; i = i + 1) { __loopbound(3, 3); "
     "} }",
     "", ""},
    // Characters outside the language.
    {"int f() { return a $ b; }",
     "lex error at 1:20: unexpected character '$'", ""},
    {"int x; #", "lex error at 1:8: unexpected character '#'", ""},
    {"int \xc3\xa9;", "lex error at 1:5: unexpected character '\xc3'", ""},
};

std::string errorOf(const auto& run) {
  try {
    run();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

Hashes edgeHashes() {
  Hashes actual;
  for (const EdgeCase& edge : kEdgeCases) {
    FrontendHash hash;
    const std::string_view source = edge.source;
    EXPECT_EQ(errorOf([&] {
                const std::vector<lang::Token> tokens = lang::lex(source);
                hash.u64(tokens.size());
                for (const lang::Token& t : tokens) hash.add(t);
              }),
              edge.lexError)
        << source;
    EXPECT_EQ(errorOf([&] { hash.add(codegen::compileSource(source)); }),
              *edge.lexError != '\0' ? edge.lexError : edge.compileError)
        << source;
    actual.emplace_back("edge " + std::to_string(actual.size()), hash.state);
  }
  return actual;
}

// One entry per Table I program.
constexpr Golden kSuite[] = {
    {"check_data", 0xc5179d6ec81bb28bULL},
    {"fft", 0x1a2f9095bee6cb74ULL},
    {"piksrt", 0xde3d0195d6022f27ULL},
    {"des", 0xa62eb1d09fb28da5ULL},
    {"line", 0x7dd21500d64f9d39ULL},
    {"circle", 0xf75182d00f6b1ef6ULL},
    {"jpeg_fdct_islow", 0x4be3525515cb2893ULL},
    {"jpeg_idct_islow", 0xf9bb2d13eed37128ULL},
    {"recon", 0xda6807cd46aaeec7ULL},
    {"fullsearch", 0x843f56fa4642fcd2ULL},
    {"whetstone", 0x66f2e95006bd3e5fULL},
    {"dhry", 0xd612d7c010552312ULL},
    {"matgen", 0x2d753360f298d913ULL},
};

constexpr Golden kFuzz[] = {
    {"seeds 1-50", 0x1c264b9e5ef187a4ULL},
    {"seeds 51-100", 0x30afb4b71228092cULL},
    {"seeds 101-150", 0x35d96db114f76a88ULL},
    {"seeds 151-200", 0x990f808b5db51bd0ULL},
};

// One entry per kEdgeCases row, in order.
constexpr Golden kEdges[] = {
    {"edge 0", 0x1fca1dc0beb66c57ULL},
    {"edge 1", 0x1fca1dc0beb66c57ULL},
    {"edge 2", 0x611b3ff683cb3cb0ULL},
    {"edge 3", 0xf55134342689b811ULL},
    {"edge 4", 0x464f4c202575e215ULL},
    {"edge 5", 0x4b7e5553444b922bULL},
    {"edge 6", 0xcbf29ce484222325ULL},
    {"edge 7", 0xcbf29ce484222325ULL},
    {"edge 8", 0xcbf29ce484222325ULL},
    {"edge 9", 0x6fb984d1a6d4519dULL},
    {"edge 10", 0xea832bb3b6403090ULL},
    {"edge 11", 0xb91038d6e45b6e5eULL},
    {"edge 12", 0xa9a6036ece91b0b6ULL},
    {"edge 13", 0x4e0951c00755fa6fULL},
    {"edge 14", 0x2717ad5d22cfa0a8ULL},
    {"edge 15", 0x7cdc0c477d2cdf5eULL},
    {"edge 16", 0xf0c8745b929303b5ULL},
    {"edge 17", 0xcbf29ce484222325ULL},
    {"edge 18", 0x3fa1e019b4fa6681ULL},
    {"edge 19", 0x298339d26faa93e3ULL},
    {"edge 20", 0x0cc2d83448ffe7bdULL},
    {"edge 21", 0x2e08384c20e48ff0ULL},
    {"edge 22", 0x2dd3830372bc2bf7ULL},
    {"edge 23", 0xcbf29ce484222325ULL},
    {"edge 24", 0xcbf29ce484222325ULL},
    {"edge 25", 0xcbf29ce484222325ULL},
};

TEST(FrontendGolden, TableIPrograms) {
  test_util::expectPinned(suiteHashes(), kSuite, "frontend output");
}

TEST(FrontendGolden, SeededFuzzPrograms) {
  test_util::expectPinned(fuzzHashes(), kFuzz, "frontend output");
}

TEST(FrontendGolden, EdgeInputs) {
  test_util::expectPinned(edgeHashes(), kEdges, "frontend output");
}

}  // namespace
}  // namespace cinderella
