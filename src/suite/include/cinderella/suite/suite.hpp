// The paper's benchmark set (Table I), re-implemented in MiniC.
//
// Each benchmark bundles:
//   - annotated MiniC source (`__loopbound` on every loop),
//   - the root function to analyse,
//   - functionality constraints beyond loop bounds (paper Section III-C);
//     these play the role of the path information a user of cinderella
//     supplies after studying the program,
//   - worst-case and best-case input data sets, identified the way the
//     paper's Experiment 1 does ("identify the initial data set that
//     corresponds to the longest/shortest running time").
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cinderella/ipet/analysis.hpp"
#include "cinderella/sim/simulator.hpp"

namespace cinderella::suite {

struct Constraint {
  std::string text;
  /// Default scope for unqualified references; empty = root function.
  std::string scope;
};

struct Benchmark {
  std::string name;
  std::string description;
  std::string source;
  std::string rootFunction;
  std::vector<Constraint> constraints;
  std::vector<sim::GlobalPatch> worstData;
  std::vector<sim::GlobalPatch> bestData;

  /// Number of newline-separated source lines (Table I "Lines").
  [[nodiscard]] int sourceLines() const;
};

/// One Table-I program: its name and the builder that makes it.
struct BenchmarkEntry {
  std::string_view name;
  Benchmark (*make)();
};

/// The Table-I registry, in the paper's order.  The one list of names:
/// every lookup below goes through it.
[[nodiscard]] std::span<const BenchmarkEntry> benchmarkTable();

/// All Table-I benchmarks, in the paper's order (builds every one).
[[nodiscard]] const std::vector<Benchmark>& allBenchmarks();

/// Lookup by name; throws AnalysisError when unknown.  Builds only the
/// named benchmark, once per process, and is safe to call from several
/// threads.
[[nodiscard]] const Benchmark& benchmarkByName(std::string_view name);

/// ProgramResolver over the built-in benchmarks — the seam an
/// ipet::AnalysisService (or a cinderella-serve daemon) installs so
/// {"benchmark":"piksrt"} requests resolve without the analysis layer
/// depending on this library.  Unknown names resolve to nullopt.
[[nodiscard]] ipet::ProgramResolver benchmarkResolver();

/// 1-based line number of the first source line containing `needle`;
/// throws AnalysisError when absent.  Keeps generated constraints robust
/// against layout edits.
[[nodiscard]] int lineOf(std::string_view source, std::string_view needle);

/// Helpers for building data-set patches.
[[nodiscard]] sim::GlobalPatch patchInts(std::string name,
                                         const std::vector<std::int64_t>& v);
[[nodiscard]] sim::GlobalPatch patchFloats(std::string name,
                                           const std::vector<double>& v);

// Individual builders (one translation unit each).
[[nodiscard]] Benchmark makeCheckData();
[[nodiscard]] Benchmark makePiksrt();
[[nodiscard]] Benchmark makeFft();
[[nodiscard]] Benchmark makeDes();
[[nodiscard]] Benchmark makeLine();
[[nodiscard]] Benchmark makeCircle();
[[nodiscard]] Benchmark makeJpegFdct();
[[nodiscard]] Benchmark makeJpegIdct();
[[nodiscard]] Benchmark makeRecon();
[[nodiscard]] Benchmark makeFullsearch();
[[nodiscard]] Benchmark makeWhetstone();
[[nodiscard]] Benchmark makeDhry();
[[nodiscard]] Benchmark makeMatgen();

}  // namespace cinderella::suite
