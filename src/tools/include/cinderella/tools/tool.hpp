// The `cinderella` command-line tool, mirroring the workflow of the
// paper's Section V: read the program, derive structural constraints,
// ask for loop bounds (here: annotations or a constraint file), print
// the annotated source, estimate the bound, and re-estimate as more
// functionality constraints are supplied.
//
// The driver logic lives in a library function so it can be unit-tested
// without spawning processes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cinderella/ipet/analysis.hpp"
#include "cinderella/ipet/analyzer.hpp"

namespace cinderella::tools {

struct ToolOptions {
  /// Path to a MiniC source file; empty when `benchmark` is used.
  std::string sourcePath;
  /// Name of a built-in Table-I benchmark to analyse instead of a file.
  std::string benchmark;
  /// Root function (default: "main", or the benchmark's root).
  std::string root;
  /// Extra functionality constraints, one per entry (from --constraint
  /// and from --constraints-file lines).
  std::vector<std::string> constraints;
  /// Declared symbolic parameters (--param N=lo..hi, repeatable).  When
  /// non-empty the analysis runs in parametric mode: `@name` references
  /// in the constraints stay symbolic and the tool prints the piecewise
  /// closed-form bound plus a sweep over the declared range.
  std::vector<ipet::ParamDecl> params;
  /// Print the annotated source listing (paper Fig. 5).
  bool annotate = false;
  /// Print the structural constraints (paper Figs 2-4 content).
  bool dumpStructural = false;
  /// Cache treatment (--cache allmiss|firstiter|ccg); unknown spellings
  /// are rejected by parseArgs via ipet::parseCacheMode.
  ipet::CacheMode cacheMode = ipet::CacheMode::AllMiss;
  /// Worker threads for the per-constraint-set solves (--jobs N);
  /// 0 = one per hardware thread.
  int jobs = 1;
  /// Solve deadline in milliseconds (--deadline-ms); 0 = none.  Sets
  /// still unsolved at expiry degrade to sound fallback bounds instead
  /// of aborting the run.
  std::int64_t deadlineMs = 0;
  /// --degraded forbid: exit with code 3 when any constraint set fell
  /// back to a non-exact (relaxed/structural/failed) bound.
  bool forbidDegraded = false;
  /// --no-presolve clears this: solve every LP without the
  /// presolve/postsolve reduction engine for A/B performance
  /// comparison.  The bound is identical either way.
  bool presolve = true;
  /// Print the per-block cost/count report after estimation.
  bool report = false;
  /// Print the worst-case ILPs in CPLEX LP format.
  bool lpDump = false;
  /// Print the module control-flow graphs in Graphviz dot format.
  bool dot = false;
  /// Also run the explicit-enumeration baseline and compare.
  bool compareExplicit = false;
  /// Also run the program on the simulator and check enclosure
  /// (requires a benchmark, which carries its data sets).
  bool simulate = false;
  /// Solve-cache entries (--cache-entries N); 0 disables the cache.
  /// Without --cache-snapshot a one-shot run never revisits a system,
  /// so the default keeps the cache off.
  std::size_t cacheEntries = 0;
  /// Solve-cache snapshot file (--cache-snapshot): restored before the
  /// run when present, written back afterwards.  Implies a cache.
  std::string cacheSnapshot;
  /// Cache policy (--cache-policy readwrite|readonly|bypass).
  ipet::CachePolicy cachePolicy = ipet::CachePolicy::ReadWrite;
  /// Write a Chrome trace-event JSON file of the whole run (--trace-out).
  std::string traceOut;
  /// Write a structured solve report as JSON (--report-json).
  std::string reportJson;
  /// Print the per-constraint-set solve table (--verbose-solve).
  bool verboseSolve = false;
};

/// Parses argv into options.  Returns false (after printing usage to
/// `err`) when the command line is invalid or --help was requested.
bool parseArgs(int argc, const char* const* argv, ToolOptions* options,
               std::ostream& err);

/// Runs the tool; returns the process exit code.
int runTool(const ToolOptions& options, std::ostream& out, std::ostream& err);

}  // namespace cinderella::tools
