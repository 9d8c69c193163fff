// Golden --report-json documents: a hash of obs::reportJson without its
// wall-clock fields, pinned for every Table I program in every cache
// mode, for a two-problem LP-input request and for README's parametric
// loop (`--param N=0..64`).
//
// The report is the schema consumers parse, so its key names, its field
// order and the fields it omits when zero are all part of the contract.
// A change to how solver counters are carried or summed must keep every
// hash; each failure message prints the new table.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ipet/analysis.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/obs/report.hpp"
#include "cinderella/suite/suite.hpp"
#include "test_util/root_systems.hpp"

namespace cinderella {
namespace {

using test_util::Golden;
using test_util::Hashes;
using test_util::kCacheModes;

std::uint64_t reportHash(const std::string& program,
                         const ipet::Estimate& estimate) {
  test_util::Fnv hash;
  hash.str(obs::reportJson(program, estimate, nullptr,
                           {.includeTimings = false}));
  return hash.state;
}

constexpr Golden kTableIReports[] = {
    {"check_data/all-miss", 0xfae012fa1c9c2903ULL},
    {"check_data/first-iteration-split", 0xa71bab8f94b88022ULL},
    {"check_data/conflict-graph", 0xf06582d33776fc21ULL},
    {"fft/all-miss", 0x67db13c8756cb3d2ULL},
    {"fft/first-iteration-split", 0x19b97c9d3e2985ecULL},
    {"fft/conflict-graph", 0x1f6dae182e78c8daULL},
    {"piksrt/all-miss", 0x5d544ee83e08c952ULL},
    {"piksrt/first-iteration-split", 0x56d24859d4fd5657ULL},
    {"piksrt/conflict-graph", 0xe7bb4747753c1df2ULL},
    {"des/all-miss", 0xe96e7455f303b563ULL},
    {"des/first-iteration-split", 0xe9a9f7bb2767c543ULL},
    {"des/conflict-graph", 0x01dc792f2fbd7443ULL},
    {"line/all-miss", 0xcbad815d68a799dcULL},
    {"line/first-iteration-split", 0xd9e9cbb9ce37c984ULL},
    {"line/conflict-graph", 0xdc2c5ea29bbce615ULL},
    {"circle/all-miss", 0x98b2159c659fea83ULL},
    {"circle/first-iteration-split", 0x0fb87716d1abae4bULL},
    {"circle/conflict-graph", 0xfc68892ee9787a1cULL},
    {"jpeg_fdct_islow/all-miss", 0x986d9955288774aaULL},
    {"jpeg_fdct_islow/first-iteration-split", 0x986d9955288774aaULL},
    {"jpeg_fdct_islow/conflict-graph", 0xec4ba783965c4dc7ULL},
    {"jpeg_idct_islow/all-miss", 0xa17bfa21fc68f6a4ULL},
    {"jpeg_idct_islow/first-iteration-split", 0xa17bfa21fc68f6a4ULL},
    {"jpeg_idct_islow/conflict-graph", 0x50fbf596989cb47dULL},
    {"recon/all-miss", 0x8401b736a196a514ULL},
    {"recon/first-iteration-split", 0x51c9f1ce6248b6d0ULL},
    {"recon/conflict-graph", 0x60b22401208598b1ULL},
    {"fullsearch/all-miss", 0xc07a9e87bc1471eeULL},
    {"fullsearch/first-iteration-split", 0xa69caa644d5c334fULL},
    {"fullsearch/conflict-graph", 0x1a7c6c7d9ec82333ULL},
    {"whetstone/all-miss", 0xc7e6d4f0c1e3f8e3ULL},
    {"whetstone/first-iteration-split", 0x8cafe8d66c4926ccULL},
    {"whetstone/conflict-graph", 0x1c4ec4bf50fd2b9aULL},
    {"dhry/all-miss", 0x4006dd456f8f25f8ULL},
    {"dhry/first-iteration-split", 0x27780295fc5e14bcULL},
    {"dhry/conflict-graph", 0xe2d0e1810526129eULL},
    {"matgen/all-miss", 0x5ad590a4d9df93ceULL},
    {"matgen/first-iteration-split", 0xc7bd26a5ff8f3deeULL},
    {"matgen/conflict-graph", 0x17776aa994344c61ULL},
};

constexpr Golden kRequestReports[] = {
    {"lp-input", 0x7a6bfb0037f8e2e4ULL},
    {"readme-param-loop", 0xf91d1d53c5b92b60ULL},
};

TEST(ReportGolden, TableIReportsAcrossCacheModes) {
  Hashes actual;
  for (const suite::Benchmark& bench : suite::allBenchmarks()) {
    const auto compiled = codegen::compileSource(bench.source);
    for (const ipet::CacheMode mode : kCacheModes) {
      ipet::AnalyzerOptions aopt;
      aopt.cacheMode = mode;
      ipet::Analyzer analyzer(compiled, bench.rootFunction, aopt);
      for (const auto& c : bench.constraints) {
        analyzer.addConstraint(c.text, c.scope);
      }
      actual.emplace_back(bench.name + "/" + ipet::cacheModeStr(mode),
                          reportHash(bench.name, analyzer.estimate()));
    }
  }
  test_util::expectPinned(actual, kTableIReports, "Table I report");
}

// README's parametric example: "@8 <= @N" caps the loop body (line 8).
constexpr const char* kReadmeLoop =
    "int acc;\n"
    "void f() {\n"
    "  int i;\n"
    "  i = 0;\n"
    "  acc = 0;\n"
    "  while (i < 64) {\n"
    "    __loopbound(0, 64);\n"
    "    acc = acc + i;\n"
    "    i = i + 1;\n"
    "  }\n"
    "}\n";

TEST(ReportGolden, LpInputAndParametricRequests) {
  ipet::AnalysisService service;
  Hashes actual;

  // One maximization (the worst case) and one minimization (the best);
  // both roots are fractional, so each solve branches.
  ipet::AnalysisRequest lp;
  lp.lpInput = true;
  lp.cachePolicy = ipet::CachePolicy::Bypass;
  lp.source =
      "Maximize\n obj: 3 x + 2 y\nSubject To\n c1: 2 x + 2 y <= 7\n"
      " c2: x - y <= 2\nGeneral\n x\n y\nEnd\n"
      "Minimize\n obj: x + 4 y\nSubject To\n c1: 2 x + 3 y >= 5\n"
      " c2: x <= 1\nGeneral\n x\n y\nEnd\n";
  const ipet::AnalysisResult lpResult = service.analyze(lp);
  actual.emplace_back("lp-input",
                      reportHash(lpResult.program, lpResult.estimate));

  ipet::AnalysisRequest param;
  param.cachePolicy = ipet::CachePolicy::Bypass;
  param.source = kReadmeLoop;
  param.root = "f";
  param.constraints = {{"@8 <= @N", ""}};
  param.parameters = {{"N", 0, 64}};
  const ipet::AnalysisResult paramResult = service.analyze(param);
  actual.emplace_back("readme-param-loop",
                      reportHash(paramResult.program, paramResult.estimate));

  test_util::expectPinned(actual, kRequestReports, "request report");
}

}  // namespace
}  // namespace cinderella
