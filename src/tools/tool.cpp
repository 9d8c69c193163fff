#include "cinderella/tools/tool.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "cinderella/cfg/dot.hpp"
#include "cinderella/codegen/codegen.hpp"
#include "cinderella/explicitpath/enumerator.hpp"
#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/annotate.hpp"
#include "cinderella/obs/metrics.hpp"
#include "cinderella/obs/report.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/sim/simulator.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/text.hpp"

namespace cinderella::tools {

namespace {

constexpr const char* kUsage = R"(usage: cinderella [options] [source.mc]

Bounds the running time of an annotated MiniC program using implicit
path enumeration (Li & Malik, DAC'95).

input (one of):
  <source.mc>              analyse a MiniC source file
  --benchmark <name>       analyse a built-in Table-I benchmark
                           (check_data, fft, piksrt, des, line, circle,
                            jpeg_fdct_islow, jpeg_idct_islow, recon,
                            fullsearch, whetstone, dhry, matgen)

options:
  --root <function>        root function to analyse (default: main)
  --constraint "<text>"    add a functionality constraint (repeatable)
  --constraints-file <f>   read constraints, one per line ('#' comments)
  --param <N=lo..hi>       declare symbolic parameter @N over [lo, hi]
                           (repeatable; N=v declares the single value v).
                           Constraints may then reference @N, e.g.
                           --constraint "main@L4 <= @N"; the analysis
                           returns a closed-form piecewise-linear bound
                           in N plus a sweep over the declared range,
                           each point bit-identical to a direct solve
  --annotate               print the annotated source (paper Fig. 5)
  --structural             print the derived structural constraints
  --cache <mode>           allmiss (default), firstiter (Section-IV
                           refinement) or ccg (cache conflict graph)
  --first-iter-split       alias for --cache firstiter
  --jobs <N>               solve the per-constraint-set ILPs on N worker
                           threads (default 1; 0 = all hardware threads);
                           the bound is identical for every N
  --deadline-ms <N>        solve deadline in milliseconds; sets still
                           unsolved at expiry degrade to sound fallback
                           bounds (LP relaxation or structural interval)
                           and the run is flagged as timed out
  --degraded <mode>        allow (default) accepts degraded per-set
                           bounds; forbid exits with code 3 when any
                           constraint set is not solved exactly
  --no-presolve            disable the presolve/postsolve reduction
                           engine (singleton substitution, bound
                           propagation, fixed-variable elimination,
                           redundant-row removal); the bound is
                           identical either way — this is for A/B
                           performance measurement
  --cache-entries <N>      enable the content-addressed solve cache with
                           N entries per store (default 0 = off; pair
                           with --cache-snapshot to reuse it across runs)
  --cache-snapshot <file>  restore the solve cache from this snapshot
                           before analysing (if present) and write it
                           back afterwards; repeat runs of an unchanged
                           input then skip the solve entirely
  --cache-policy <p>       readwrite (default), readonly (use but never
                           update the snapshot) or bypass
  --report                 print per-block costs and extreme counts
  --lp-dump                print the worst-case ILPs in CPLEX LP format
  --dot                    print the CFGs in Graphviz dot format
  --explicit               also run explicit path enumeration and compare
  --simulate               run extreme-case data sets on the simulator
                           and verify the bound encloses them
                           (built-in benchmarks only)

observability:
  --trace-out <file>       write a Chrome trace-event JSON timeline of
                           the run (load in chrome://tracing or Perfetto)
  --report-json <file>     write a structured solve report: the bound,
                           aggregate stats, one record per constraint
                           set, and solver metrics
  --verbose-solve          print a per-constraint-set solve table

  --help                   show this message

exit codes:
  0  success
  1  usage, input or analysis error
  2  --simulate measured a run outside the estimated bound (unsound)
  3  --degraded forbid and at least one set was not solved exactly
  4  internal error (unexpected exception; please report)
)";

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses a --param spec "name=lo..hi" or "name=value".
bool parseParamSpec(const std::string& spec, ipet::ParamDecl* decl) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  const std::string name = spec.substr(0, eq);
  for (std::size_t k = 0; k < name.size(); ++k) {
    const auto c = static_cast<unsigned char>(name[k]);
    const bool ok =
        std::isalpha(c) != 0 || c == '_' || (k > 0 && std::isdigit(c) != 0);
    if (!ok) return false;
  }
  const std::string range = spec.substr(eq + 1);
  const std::size_t dots = range.find("..");
  const std::string loText =
      dots == std::string::npos ? range : range.substr(0, dots);
  const std::string hiText =
      dots == std::string::npos ? range : range.substr(dots + 2);
  if (loText.empty() || hiText.empty()) return false;
  char* end = nullptr;
  const std::int64_t lo = std::strtoll(loText.c_str(), &end, 10);
  if (end != loText.c_str() + loText.size()) return false;
  end = nullptr;
  const std::int64_t hi = std::strtoll(hiText.c_str(), &end, 10);
  if (end != hiText.c_str() + hiText.size()) return false;
  if (lo > hi) return false;
  decl->name = name;
  decl->lo = lo;
  decl->hi = hi;
  return true;
}

std::string ratStr(const ipet::Rat& r) {
  std::string s = std::to_string(r.num);
  if (r.den != 1) s += "/" + std::to_string(r.den);
  return s;
}

std::string affineStr(const ipet::AffineForm& form,
                      const std::vector<ipet::ParamDecl>& params) {
  std::string s = ratStr(form.constant);
  for (std::size_t i = 0; i < form.coeff.size() && i < params.size(); ++i) {
    ipet::Rat c = form.coeff[i];
    if (c.num == 0) continue;
    s += c.num > 0 ? " + " : " - ";
    if (c.num < 0) c.num = -c.num;
    if (!(c.num == 1 && c.den == 1)) s += ratStr(c) + "*";
    s += params[i].name;
  }
  return s;
}

void printParametric(std::ostream& out, const ipet::AnalysisResult& result) {
  const ipet::WcetFormula& formula = *result.formula;
  out << "parametric formula (" << formula.pieces.size() << " piece(s)"
      << (result.cacheHit ? ", served from the formula cache" : "") << "):\n";
  for (const ipet::FormulaPiece& piece : formula.pieces) {
    out << "  ";
    for (std::size_t i = 0; i < formula.params.size(); ++i) {
      if (i != 0) out << ", ";
      out << formula.params[i].name << " in [" << piece.region.lo[i] << ", "
          << piece.region.hi[i] << "]";
    }
    out << ": worst = " << affineStr(piece.worst, formula.params)
        << "; best = " << affineStr(piece.best, formula.params) << "\n";
  }
  if (!formula.params.empty()) {
    // Sweep over the declared box: every axis is sampled with an
    // endpoint-inclusive stride and the cartesian grid printed row by
    // row.  The row budget is split evenly across axes, so two or three
    // parameters still render a digestible table instead of an
    // exponential dump.
    constexpr std::int64_t kMaxRows = 32;
    const std::size_t numParams = formula.params.size();
    const auto axisBudget = std::max<std::int64_t>(
        2, static_cast<std::int64_t>(std::floor(std::pow(
               static_cast<double>(kMaxRows),
               1.0 / static_cast<double>(numParams)))));
    std::vector<std::vector<std::int64_t>> axes;
    bool sampled = false;
    for (const ipet::ParamDecl& p : formula.params) {
      const std::int64_t count = p.hi - p.lo + 1;
      const std::int64_t stride =
          count > axisBudget ? (count + axisBudget - 1) / axisBudget : 1;
      if (stride > 1) sampled = true;
      std::vector<std::int64_t> points;
      for (std::int64_t v = p.lo;; v += stride) {
        points.push_back(v);
        if (v > p.hi - stride) break;
      }
      if (points.back() != p.hi) points.push_back(p.hi);
      axes.push_back(std::move(points));
    }
    out << "sweep ";
    for (std::size_t i = 0; i < numParams; ++i) {
      if (i != 0) out << ", ";
      out << formula.params[i].name << " = " << formula.params[i].lo << ".."
          << formula.params[i].hi;
    }
    out << (sampled ? " (sampled)" : "") << ":\n";
    std::vector<std::size_t> index(numParams, 0);
    std::vector<std::int64_t> point(numParams, 0);
    bool done = false;
    while (!done) {
      for (std::size_t i = 0; i < numParams; ++i) point[i] = axes[i][index[i]];
      const ipet::Interval bound = formula.evaluate(point);
      out << "  ";
      for (std::size_t i = 0; i < numParams; ++i) {
        if (i != 0) out << ", ";
        out << formula.params[i].name << " = " << point[i];
      }
      out << ": " << intervalStr(bound.lo, bound.hi) << " cycles\n";
      std::size_t axis = numParams;
      while (axis-- > 0) {
        if (++index[axis] < axes[axis].size()) break;
        index[axis] = 0;
        if (axis == 0) done = true;
      }
    }
  }
  out << "parametric digest: " << result.fullDigest.hex()
      << " (serve \"evaluate\" op key)\n";
}

}  // namespace

bool parseArgs(int argc, const char* const* argv, ToolOptions* options,
               std::ostream& err) {
  auto needValue = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      err << "cinderella: " << flag << " needs an argument\n" << kUsage;
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      err << kUsage;
      return false;
    } else if (arg == "--benchmark") {
      const char* v = needValue(i, "--benchmark");
      if (!v) return false;
      options->benchmark = v;
    } else if (arg == "--root") {
      const char* v = needValue(i, "--root");
      if (!v) return false;
      options->root = v;
    } else if (arg == "--constraint") {
      const char* v = needValue(i, "--constraint");
      if (!v) return false;
      options->constraints.push_back(v);
    } else if (arg == "--constraints-file") {
      const char* v = needValue(i, "--constraints-file");
      if (!v) return false;
      for (const auto& line : splitLines(readFile(v))) {
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#') continue;
        options->constraints.push_back(line);
      }
    } else if (arg == "--param") {
      const char* v = needValue(i, "--param");
      if (!v) return false;
      ipet::ParamDecl decl;
      if (!parseParamSpec(v, &decl)) {
        err << "cinderella: --param needs <name>=<lo>..<hi> (or "
               "<name>=<value>) with an identifier name and integer "
               "lo <= hi\n";
        return false;
      }
      options->params.push_back(std::move(decl));
    } else if (arg == "--annotate") {
      options->annotate = true;
    } else if (arg == "--structural") {
      options->dumpStructural = true;
    } else if (arg == "--first-iter-split") {
      options->cacheMode = ipet::CacheMode::FirstIterationSplit;
    } else if (arg == "--cache") {
      const char* v = needValue(i, "--cache");
      if (!v) return false;
      const auto mode = ipet::parseCacheMode(v);
      if (!mode) {
        err << "cinderella: unknown --cache mode '" << v
            << "' (must be allmiss, firstiter or ccg)\n";
        return false;
      }
      options->cacheMode = *mode;
    } else if (arg == "--jobs") {
      const char* v = needValue(i, "--jobs");
      if (!v) return false;
      char* end = nullptr;
      const long jobs = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || jobs < 0 || jobs > 1024) {
        err << "cinderella: --jobs needs an integer in [0, 1024] "
               "(0 = all hardware threads)\n";
        return false;
      }
      options->jobs = static_cast<int>(jobs);
    } else if (arg == "--deadline-ms") {
      const char* v = needValue(i, "--deadline-ms");
      if (!v) return false;
      char* end = nullptr;
      const long long ms = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || ms < 1 || ms > 86'400'000) {
        err << "cinderella: --deadline-ms needs an integer in "
               "[1, 86400000] (milliseconds)\n";
        return false;
      }
      options->deadlineMs = ms;
    } else if (arg == "--degraded") {
      const char* v = needValue(i, "--degraded");
      if (!v) return false;
      const std::string mode = v;
      if (mode == "forbid") {
        options->forbidDegraded = true;
      } else if (mode == "allow") {
        options->forbidDegraded = false;
      } else {
        err << "cinderella: --degraded must be 'allow' or 'forbid'\n";
        return false;
      }
    } else if (arg == "--no-presolve") {
      options->presolve = false;
    } else if (arg == "--cache-entries") {
      const char* v = needValue(i, "--cache-entries");
      if (!v) return false;
      char* end = nullptr;
      const long long entries = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || entries < 0 || entries > (1 << 24)) {
        err << "cinderella: --cache-entries needs an integer in "
               "[0, 16777216]\n";
        return false;
      }
      options->cacheEntries = static_cast<std::size_t>(entries);
    } else if (arg == "--cache-snapshot") {
      const char* v = needValue(i, "--cache-snapshot");
      if (!v) return false;
      options->cacheSnapshot = v;
      if (options->cacheEntries == 0) options->cacheEntries = 1024;
    } else if (arg == "--cache-policy") {
      const char* v = needValue(i, "--cache-policy");
      if (!v) return false;
      const auto policy = ipet::parseCachePolicy(v);
      if (!policy) {
        err << "cinderella: unknown --cache-policy '" << v
            << "' (must be readwrite, readonly or bypass)\n";
        return false;
      }
      options->cachePolicy = *policy;
    } else if (arg == "--report") {
      options->report = true;
    } else if (arg == "--lp-dump") {
      options->lpDump = true;
    } else if (arg == "--dot") {
      options->dot = true;
    } else if (arg == "--explicit") {
      options->compareExplicit = true;
    } else if (arg == "--simulate") {
      options->simulate = true;
    } else if (arg == "--trace-out") {
      const char* v = needValue(i, "--trace-out");
      if (!v) return false;
      options->traceOut = v;
    } else if (arg == "--report-json") {
      const char* v = needValue(i, "--report-json");
      if (!v) return false;
      options->reportJson = v;
    } else if (arg == "--verbose-solve") {
      options->verboseSolve = true;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "cinderella: unknown option '" << arg << "'\n" << kUsage;
      return false;
    } else if (options->sourcePath.empty()) {
      options->sourcePath = arg;
    } else {
      err << "cinderella: multiple source files given\n" << kUsage;
      return false;
    }
  }

  if (options->sourcePath.empty() && options->benchmark.empty()) {
    err << "cinderella: no input (give a source file or --benchmark)\n"
        << kUsage;
    return false;
  }
  if (!options->sourcePath.empty() && !options->benchmark.empty()) {
    err << "cinderella: give either a source file or --benchmark, not both\n";
    return false;
  }
  if (options->simulate && options->benchmark.empty()) {
    err << "cinderella: --simulate needs --benchmark (data sets)\n";
    return false;
  }
  if (!options->params.empty() &&
      (options->simulate || options->compareExplicit || options->lpDump)) {
    err << "cinderella: --param cannot be combined with --simulate, "
           "--explicit or --lp-dump (those need concrete parameter "
           "values)\n";
    return false;
  }
  return true;
}

int runTool(const ToolOptions& options, std::ostream& out,
            std::ostream& err) {
  try {
    std::string source;
    std::string root = options.root;
    std::vector<suite::Constraint> constraints;
    const suite::Benchmark* bench = nullptr;

    if (!options.benchmark.empty()) {
      bench = &suite::benchmarkByName(options.benchmark);
      source = bench->source;
      if (root.empty()) root = bench->rootFunction;
      constraints = bench->constraints;
    } else {
      source = readFile(options.sourcePath);
      if (root.empty()) root = "main";
    }
    for (const auto& text : options.constraints) {
      constraints.push_back({text, ""});
    }

    // Observability: a tracer only when --trace-out asked for one (a null
    // tracer keeps every Span disabled), and a metrics registry installed
    // as the process-wide sink only while --report-json needs a snapshot.
    std::unique_ptr<obs::Tracer> tracer;
    if (!options.traceOut.empty()) tracer = std::make_unique<obs::Tracer>();
    obs::MetricsRegistry metrics;
    std::optional<obs::ScopedMetricsSink> scopedSink;
    if (!options.reportJson.empty()) scopedSink.emplace(&metrics);

    obs::Span frontendSpan(tracer.get(), "frontend", "ipet");
    const codegen::CompileResult compiled = codegen::compileSource(source);
    frontendSpan.end();

    obs::Span setupSpan(tracer.get(), "analyzer-setup", "ipet");
    ipet::AnalyzerOptions aopt;
    aopt.cacheMode = options.cacheMode;
    ipet::Analyzer analyzer(compiled, root, aopt);
    for (const auto& c : constraints) {
      analyzer.addConstraint(c.text, c.scope);
    }
    setupSpan.end();

    if (options.annotate) {
      out << ipet::annotateSource(analyzer, source) << "\n";
    }
    if (options.dumpStructural) {
      for (int f = 0; f < compiled.module.numFunctions(); ++f) {
        out << analyzer.structuralConstraintsStr(f);
      }
      out << "\n";
    }

    if (options.dot) {
      out << cfg::moduleToDot(compiled.module) << "\n";
    }
    if (options.lpDump) {
      out << analyzer.exportWorstCaseIlp() << "\n";
    }

    // The estimate itself goes through the same AnalysisService the
    // daemon uses — the CLI is a thin adapter over the unified
    // AnalysisRequest/AnalysisResult API, plus the local inspection
    // commands (annotate/structural/dot/lp-dump) handled above.
    ipet::AnalysisServiceOptions serviceOptions;
    serviceOptions.cache.capacity = options.cacheEntries;
    ipet::AnalysisService service(serviceOptions);
    if (!options.cacheSnapshot.empty()) {
      std::ifstream probe(options.cacheSnapshot);
      std::string loadError;
      if (probe && !service.cache().load(options.cacheSnapshot, &loadError)) {
        err << "cinderella: cache snapshot ignored: " << loadError << "\n";
      }
    }

    ipet::AnalysisRequest request;
    request.label =
        !options.benchmark.empty() ? options.benchmark : options.sourcePath;
    request.cachePolicy = options.cachePolicy;
    request.control.threads = options.jobs;
    request.control.presolve = options.presolve;
    request.control.tracer = tracer.get();
    if (options.deadlineMs > 0) {
      request.control.deadline = std::chrono::milliseconds(options.deadlineMs);
    }
    request.parameters = options.params;
    const ipet::AnalysisResult result =
        options.params.empty()
            ? service.analyzeWith(analyzer, request)
            : service.analyzeParametricWith(analyzer, request);
    const ipet::Estimate& estimate = result.estimate;

    if (!options.cacheSnapshot.empty() &&
        options.cachePolicy == ipet::CachePolicy::ReadWrite) {
      std::string saveError;
      if (!service.cache().save(options.cacheSnapshot, &saveError)) {
        err << "cinderella: cache snapshot not written: " << saveError << "\n";
      }
    }

    if (tracer != nullptr) {
      std::ofstream traceFile(options.traceOut);
      if (!traceFile) {
        throw Error("cannot write trace to '" + options.traceOut + "'");
      }
      tracer->writeChromeTrace(traceFile);
    }
    if (!options.reportJson.empty()) {
      scopedSink.reset();  // stop collecting; the snapshot is final
      const std::string program =
          !options.benchmark.empty() ? options.benchmark : options.sourcePath;
      std::ofstream reportFile(options.reportJson);
      if (!reportFile) {
        throw Error("cannot write report to '" + options.reportJson + "'");
      }
      obs::writeReportJson(program, estimate, &metrics, reportFile);
    }

    if (options.verboseSolve) {
      out << obs::formatSolveTable(estimate) << "\n";
    }
    if (options.report) {
      out << ipet::formatEstimateReport(analyzer, estimate) << "\n";
    }
    if (result.formula) {
      printParametric(out, result);
      out << "estimated bound over the declared box: "
          << intervalStr(estimate.bound.lo, estimate.bound.hi) << " cycles\n";
    } else {
      out << "estimated bound: "
          << intervalStr(estimate.bound.lo, estimate.bound.hi)
          << " cycles\n";
      if (result.cacheHit) {
        // A hit restores only the verified bound and the set count; the
        // per-solve statistics belong to the original (cold) run.
        out << "solve cache: hit (" << estimate.stats.constraintSets
            << " constraint set(s), solved in " << result.solveMicros
            << " us originally)\n";
      } else {
        out << "constraint sets: " << estimate.stats.constraintSets << " ("
            << estimate.stats.prunedNullSets << " null, pruned); ILP solves: "
            << estimate.stats.ilpSolves
            << "; LP calls: " << estimate.stats.lpCalls
            << "; first relaxation integral: "
            << (estimate.stats.allFirstRelaxationsIntegral ? "yes" : "no")
            << "\n";
        if (estimate.stats.presolveRowsRemoved +
                estimate.stats.presolveColsFixed +
                estimate.stats.presolveSubstitutions !=
            0) {
          out << "presolve: " << estimate.stats.presolveRowsRemoved
              << " row(s) removed, " << estimate.stats.presolveColsFixed
              << " var(s) fixed, " << estimate.stats.presolveSubstitutions
              << " substituted across " << estimate.stats.lpCalls
              << " LP call(s)\n";
        }
      }
    }

    const int degradedSets = estimate.stats.relaxedSets +
                             estimate.stats.structuralSets +
                             estimate.stats.failedSets;
    if (degradedSets != 0 || estimate.timedOut) {
      out << "degraded: " << estimate.stats.relaxedSets << " relaxed, "
          << estimate.stats.structuralSets << " structural, "
          << estimate.stats.failedSets << " failed set(s)"
          << (estimate.timedOut ? "; deadline expired" : "") << "; bound is "
          << (estimate.sound() ? "sound but possibly loose"
                               : "NOT guaranteed sound")
          << "\n";
      if (options.forbidDegraded) {
        err << "cinderella: degraded result rejected (--degraded forbid)\n";
        return 3;
      }
    }

    if (options.compareExplicit) {
      explicitpath::EnumOptions eo;
      const explicitpath::EnumResult ex =
          explicitpath::enumeratePaths(compiled, root, eo);
      out << "explicit enumeration: " << ex.pathsExplored << " paths"
          << (ex.complete ? "" : " (CAPPED, bounds partial)") << ", bound "
          << intervalStr(ex.best, ex.worst) << "\n";
      if (ex.complete) {
        out << "implicit == explicit: "
            << ((estimate.bound.lo == ex.best && estimate.bound.hi == ex.worst)
                    ? "yes"
                    : "NO")
            << "\n";
      }
    }

    if (options.simulate && bench != nullptr) {
      sim::Simulator simulator(compiled.module);
      const int fn = *compiled.module.findFunction(root);
      sim::SimOptions worstRun;
      worstRun.patches = bench->worstData;
      const sim::SimResult worst = simulator.run(fn, {}, worstRun);
      sim::SimOptions bestRun;
      bestRun.patches = bench->bestData;
      (void)simulator.run(fn, {}, bestRun);
      bestRun.coldCache = false;
      const sim::SimResult best = simulator.run(fn, {}, bestRun);
      out << "simulated: worst-case data " << withThousands(worst.cycles)
          << " cycles (cold cache), best-case data "
          << withThousands(best.cycles) << " cycles (warm cache)\n";
      const bool enclosed = estimate.bound.lo <= best.cycles &&
                            worst.cycles <= estimate.bound.hi;
      out << "bound encloses simulation: " << (enclosed ? "yes" : "NO")
          << "\n";
      if (!enclosed) return 2;
    }
    return 0;
  } catch (const Error& e) {
    err << "cinderella: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Anything that is not a cinderella::Error escaping this far is a
    // bug in the tool itself, not a problem with the user's input.
    err << "cinderella: internal error: " << e.what() << "\n";
    return 4;
  } catch (...) {
    err << "cinderella: internal error: unknown exception\n";
    return 4;
  }
}

}  // namespace cinderella::tools
