// Shared helpers of the golden tests: an FNV-1a hasher, the root ILP
// systems the analyzer exports for each constraint set, and a pinned
// hash table comparison that prints the current table on mismatch.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/lp/lp_format.hpp"
#include "cinderella/lp/problem.hpp"

namespace cinderella::test_util {

/// FNV-1a over a canonical little-endian encoding.
struct Fnv {
  std::uint64_t state = 0xcbf29ce484222325ULL;

  void byte(unsigned char b) {
    state ^= b;
    state *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void ints(const std::vector<int>& v) {
    u64(v.size());
    for (const int x : v) i64(x);
  }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    for (const double x : v) f64(x);
  }
  void expr(const lp::LinearExpr& e) {
    u64(e.terms().size());
    for (const lp::Term& t : e.terms()) {
      i64(t.var);
      f64(t.coeff);
    }
    f64(e.constant());
  }
};

/// The exported worst-case ILPs, one per constraint set, renumbered back
/// into the analyzer's variable order: the parser numbers variables by
/// first appearance, the writer's `General` section lists them by index.
inline std::vector<lp::Problem> exportedSystems(
    const ipet::Analyzer& analyzer) {
  const std::string text = analyzer.exportWorstCaseIlp();
  std::vector<lp::Problem> out;
  std::size_t pos = 0;
  for (std::size_t end; (end = text.find("\nEnd\n", pos)) != std::string::npos;
       pos = end + 5) {
    const std::string_view chunk(text.data() + pos, end + 5 - pos);
    const lp::Problem parsed = lp::parseLpFormat(chunk);
    lp::Problem p;
    std::unordered_map<std::string, int> index;
    // One " name" line per variable, up to the unindented "End".
    for (std::size_t line = chunk.find("\nGeneral\n") + 9; chunk[line] == ' ';
         line = chunk.find('\n', line) + 1) {
      const std::string name(
          chunk.substr(line + 1, chunk.find('\n', line) - line - 1));
      index.emplace(name, p.addVar(name));
    }
    auto remap = [&](const lp::LinearExpr& e) {
      lp::LinearExpr mapped;
      for (const lp::Term& t : e.terms()) {
        mapped.add(index.at(parsed.varName(t.var)), t.coeff);
      }
      mapped.addConstant(e.constant());
      return mapped;
    };
    p.setObjective(remap(parsed.objective()), parsed.sense());
    for (const lp::Constraint& c : parsed.constraints()) {
      p.addConstraint(remap(c.expr), c.rel, c.rhs);
    }
    out.push_back(std::move(p));
  }
  return out;
}

/// Best-case (all-hit) cost of every block-count variable, by name.
inline std::unordered_map<std::string, double> bestCosts(
    const ipet::Analyzer& analyzer) {
  std::unordered_map<std::string, double> costs;
  for (const ipet::Context& ctx : analyzer.contexts()) {
    const std::string& fn = analyzer.module().function(ctx.function).name;
    const std::string suffix = ctx.key.empty() ? "" : "[" + ctx.key + "]";
    for (int b = 0; b < analyzer.cfgOf(ctx.function).numBlocks(); ++b) {
      costs[fn + ".x" + std::to_string(b) + suffix] =
          static_cast<double>(analyzer.blockCost(ctx.function, b).best);
    }
  }
  return costs;
}

/// The best-case objective of an exported system: the all-hit cost of
/// every block-count variable it carries (minimized).
inline lp::LinearExpr bestObjective(
    const lp::Problem& p,
    const std::unordered_map<std::string, double>& costs) {
  lp::LinearExpr obj;
  for (int v = 0; v < p.numVars(); ++v) {
    const auto it = costs.find(p.varName(v));
    if (it != costs.end() && it->second != 0.0) obj.add(v, it->second);
  }
  return obj;
}

inline constexpr ipet::CacheMode kCacheModes[] = {
    ipet::CacheMode::AllMiss, ipet::CacheMode::FirstIterationSplit,
    ipet::CacheMode::ConflictGraph};

struct Golden {
  const char* name;
  std::uint64_t hash;
};

using Hashes = std::vector<std::pair<std::string, std::uint64_t>>;

/// Compares `actual` with `pinned` entry by entry; on any difference
/// prints the whole current table, ready to paste when re-pinning.
template <std::size_t N>
void expectPinned(const Hashes& actual, const Golden (&pinned)[N],
                  std::string_view what) {
  std::string table;
  bool same = actual.size() == N;
  for (std::size_t k = 0; k < actual.size(); ++k) {
    const auto& [name, hash] = actual[k];
    char line[128];
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},\n",
                  name.c_str(), static_cast<unsigned long long>(hash));
    table += line;
    if (k >= N || name != pinned[k].name || hash != pinned[k].hash) {
      ADD_FAILURE() << what << " changed: " << name;
      same = false;
    }
  }
  EXPECT_TRUE(same) << "current table:\n" << table;
}

}  // namespace cinderella::test_util
