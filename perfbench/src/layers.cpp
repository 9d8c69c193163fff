// The traced run.  One request is split into the public functions of
// each layer, and every call is wrapped in an obs::Span from this file —
// the program itself is not instrumented.  Layer times are self times
// (a span's duration minus its child spans), summed per pass; counts
// come from the public return values of the same calls.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "cinderella/cfg/cfg.hpp"
#include "cinderella/cfg/dominators.hpp"
#include "cinderella/cfg/loops.hpp"
#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/lang/parser.hpp"
#include "cinderella/lang/sema.hpp"
#include "cinderella/lp/lp_format.hpp"
#include "cinderella/lp/presolve.hpp"
#include "cinderella/obs/report.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/serve/client.hpp"
#include "cinderella/serve/protocol.hpp"
#include "cinderella/serve/server.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/tools/tool.hpp"

namespace perfbench {

namespace {

namespace cfg = cinderella::cfg;
namespace codegen = cinderella::codegen;
namespace ilp = cinderella::ilp;
namespace lang = cinderella::lang;
namespace lp = cinderella::lp;
namespace obs = cinderella::obs;
namespace serve = cinderella::serve;
namespace suite = cinderella::suite;
namespace tools = cinderella::tools;

/// Self time per span name, plus the smallest share of a request span
/// its children cover.
struct SelfTimes {
  std::map<std::string, double> micros;
  double minCoverage = 1.0;
};

SelfTimes selfTimes(const obs::Tracer& tracer) {
  std::vector<obs::TraceEvent> events = tracer.events();
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.startMicros != b.startMicros) return a.startMicros < b.startMicros;
    return a.durMicros > b.durMicros;
  });
  std::vector<double> childMicros(events.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    while (!stack.empty()) {
      const obs::TraceEvent& top = events[stack.back()];
      if (top.tid == e.tid &&
          e.startMicros < top.startMicros + top.durMicros) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      childMicros[stack.back()] += static_cast<double>(e.durMicros);
    }
    stack.push_back(i);
  }
  SelfTimes out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double dur = static_cast<double>(events[i].durMicros);
    out.micros[events[i].name] += dur - childMicros[i];
    if (events[i].name == "request" && dur > 0) {
      out.minCoverage = std::min(out.minCoverage, childMicros[i] / dur);
    }
  }
  return out;
}

/// One unit's request, layer by layer, through the same calls
/// AnalysisService::analyze makes.
ipet::AnalysisResult tracedRequest(const Unit& unit,
                                   const ipet::AnalysisService& service,
                                   obs::Tracer* tracer) {
  obs::Span request(tracer, "request", "perfbench");
  request.arg("unit", unit.label);
  std::optional<lang::Program> program;
  {
    obs::Span span(tracer, "lang.parse", "lang");
    program.emplace(lang::parse(unit.source));
    lang::analyze(*program);
  }
  std::optional<codegen::CompileResult> compiled;
  {
    obs::Span span(tracer, "codegen.compile", "codegen");
    compiled.emplace(codegen::compile(*program));
  }
  {
    obs::Span span(tracer, "cfg.build", "cfg");
    for (int f = 0; f < compiled->module.numFunctions(); ++f) {
      const cfg::ControlFlowGraph graph = cfg::buildCfg(compiled->module, f);
      const cfg::DominatorTree dom(graph);
      (void)cfg::findLoops(graph, dom);
    }
  }
  std::optional<ipet::Analyzer> analyzer;
  {
    obs::Span span(tracer, "ipet.init", "ipet");
    ipet::AnalyzerOptions aopt;
    aopt.cacheMode = unit.request.cacheMode;
    analyzer.emplace(*compiled, unit.root, aopt);
    for (const auto& c : unit.constraints) {
      analyzer->addConstraint(c.text, c.scope);
    }
  }
  {
    obs::Span span(tracer, "ipet.digest", "ipet");
    (void)analyzer->systemDigests();
  }
  ipet::AnalysisResult result;
  {
    obs::Span span(tracer, "ipet.solve", "ipet");
    result = service.analyzeWith(*analyzer, unit.request);
  }
  request.end();
  return result;
}

struct TracedPass {
  double wallMicros = 0.0;
  std::vector<ipet::AnalysisResult> results;
};

TracedPass tracedPass(const Workload& workload,
                      const ipet::AnalysisService& service,
                      obs::Tracer* tracer) {
  TracedPass pass;
  pass.results.resize(workload.units.size());
  const Clock::time_point start = Clock::now();
  for (int u : workload.order) {
    const auto i = static_cast<std::size_t>(u);
    try {
      pass.results[i] = tracedRequest(workload.units[i], service, tracer);
    } catch (const cinderella::Error& e) {
      std::fprintf(stderr, "perfbench: traced %s: %s\n",
                   workload.units[i].label.c_str(), e.what());
    }
  }
  pass.wallMicros = microsSince(start);
  return pass;
}

/// The cache and protocol layers a daemon request crosses, driven with
/// this pass's real digests, estimates and requests.
void cacheAndProtocol(const Workload& workload, const TracedPass& pass,
                      obs::Tracer* tracer) {
  ipet::SolveCacheOptions cacheOptions;
  cacheOptions.capacity = 4 * workload.units.size() + 16;
  ipet::SolveCache cache(cacheOptions);
  for (int u : workload.order) {
    const ipet::AnalysisResult& r = pass.results[static_cast<std::size_t>(u)];
    {
      obs::Span span(tracer, "solve_cache.lookup", "ipet");
      (void)cache.lookupBound(r.fullDigest);
    }
    {
      obs::Span span(tracer, "solve_cache.insert", "ipet");
      cache.insert(r.fullDigest, r.structuralDigest, r.estimate, lp::Basis{},
                   r.solveMicros);
    }
    {
      obs::Span span(tracer, "solve_cache.lookup", "ipet");
      (void)cache.lookupBound(r.fullDigest);
    }
  }
  std::int64_t id = 1;
  for (int u : workload.order) {
    const auto i = static_cast<std::size_t>(u);
    obs::Span span(tracer, "serve.protocol", "serve");
    serve::RequestFrame frame;
    frame.id = id++;
    frame.request = submissionRequest(workload.units[i], Kind::First);
    serve::RequestFrame decoded;
    std::string error;
    (void)serve::decodeRequest(serve::encodeRequest(frame), &decoded, &error);
    const std::string report = obs::reportJson(
        pass.results[i].program, pass.results[i].estimate, nullptr, {});
    (void)serve::decodeResponse(
        serve::encodeAnalyzeResponse(frame.id, pass.results[i], report, false),
        &error);
  }
}

/// In-process tools::runTool per unit — the CLI minus process start-up.
void runToolPass(const Workload& workload,
                 const std::vector<InprocResult>& reference,
                 obs::Tracer* tracer, Checks* checks) {
  for (int u : workload.order) {
    const auto i = static_cast<std::size_t>(u);
    const Unit& unit = workload.units[i];
    tools::ToolOptions options;
    if (!unit.request.benchmark.empty()) {
      options.benchmark = unit.request.benchmark;
    } else {
      options.sourcePath = unit.sourcePath;
      options.root = unit.root;
      for (const auto& c : unit.constraints) options.constraints.push_back(c.text);
    }
    options.cacheMode = unit.request.cacheMode;
    std::ostringstream out;
    std::ostringstream err;
    int code = 0;
    {
      obs::Span span(tracer, "tools.run_tool", "tools");
      code = tools::runTool(options, out, err);
    }
    ++checks->attempted;
    const auto bound = parseCliBound(out.str());
    checks->expect(code == 0 && bound && *bound == reference[i].bound,
                   "runTool " + unit.label +
                       ": bound differs from the in-process bound");
  }
}

struct Replay {
  std::int64_t rowsIn = 0;
  std::int64_t rowsOut = 0;
  std::int64_t colsIn = 0;
  std::int64_t colsOut = 0;
  std::int64_t nodes = 0;
};

/// Re-solves every exported worst-case ILP of one system cold:
/// presolve, the simplex on the reduced LP, and branch-and-bound on the
/// original, each timed.  Returns the largest optimum — the bound's hi.
std::int64_t replaySystem(const std::string& source, const std::string& root,
                          const std::vector<ipet::RequestConstraint>& constraints,
                          ipet::CacheMode mode, obs::Tracer* tracer,
                          Replay* replay) {
  const codegen::CompileResult compiled = codegen::compileSource(source);
  ipet::AnalyzerOptions aopt;
  aopt.cacheMode = mode;
  ipet::Analyzer analyzer(compiled, root, aopt);
  for (const auto& c : constraints) analyzer.addConstraint(c.text, c.scope);
  std::int64_t worst = INT64_MIN;
  for (const lp::Problem& problem :
       lp::parseLpFormatAll(analyzer.exportWorstCaseIlp())) {
    replay->rowsIn += static_cast<std::int64_t>(problem.constraints().size());
    replay->colsIn += problem.numVars();
    lp::SimplexOptions simplexOptions;
    std::optional<lp::Reduction> reduction;
    {
      obs::Span span(tracer, "lp.presolve", "lp");
      reduction.emplace(lp::Reduction::reduce(problem, simplexOptions));
    }
    if (!reduction->provedInfeasible()) {
      const lp::Problem& reduced = reduction->reduced();
      replay->rowsOut += static_cast<std::int64_t>(reduced.constraints().size());
      replay->colsOut += reduced.numVars();
      simplexOptions.presolve = false;
      obs::Span span(tracer, "lp.simplex", "lp");
      (void)lp::solve(reduced, simplexOptions);
    }
    ilp::IlpSolution solution;
    {
      obs::Span span(tracer, "ilp.bnb", "ilp");
      solution = ilp::solve(problem);
    }
    replay->nodes += solution.stats.nodesExpanded;
    if (solution.status == ilp::IlpStatus::Optimal) {
      worst = std::max<std::int64_t>(
          worst, solution.objectiveIsExact ? solution.objectiveExact
                                           : std::llround(solution.objective));
    }
  }
  return worst;
}

void expectReplay(const std::string& label, std::int64_t worst,
                  const ipet::Interval& bound, Checks* checks) {
  ++checks->attempted;
  checks->expect(worst == bound.hi, "replay " + label + ": worst case " +
                                        std::to_string(worst) +
                                        " != bound hi " +
                                        std::to_string(bound.hi));
}

}  // namespace

Metrics runTraced(const Workload& workload, const Options& options,
                  serve::Server& server, Checks* checks) {
  Metrics m;
  ipet::AnalysisServiceOptions serviceOptions;
  serviceOptions.benchmarkResolver = suite::benchmarkResolver();
  const ipet::AnalysisService service(serviceOptions);
  const Clock::time_point start = Clock::now();

  // The first traced pass sets the reference answers and the counts.
  obs::Tracer firstTracer;
  TracedPass first = tracedPass(workload, service, &firstTracer);
  cacheAndProtocol(workload, first, &firstTracer);
  std::vector<InprocResult> reference;
  for (std::size_t i = 0; i < workload.units.size(); ++i) {
    reference.push_back(toInprocResult(first.results[i]));
    if (i == 0 && options.plantWrongBound) {
      reference.back().bound.hi = workload.units[0].measured.hi - 1;
    }
    ++checks->attempted;
    checkAnswer(workload.units[i], reference.back(), nullptr, "traced",
                checks);
  }

  put(&m, "bounds.changed",
      static_cast<double>(printBounds(workload, reference)), "count");
  Replay replay;
  for (int u : workload.order) {
    const Unit& unit = workload.units[static_cast<std::size_t>(u)];
    expectReplay(unit.label,
                 replaySystem(unit.source, unit.root, unit.constraints,
                              unit.request.cacheMode, &firstTracer, &replay),
                 reference[static_cast<std::size_t>(u)].bound, checks);
  }
  runToolPass(workload, reference, &firstTracer, checks);
  const SelfTimes oneOff = selfTimes(firstTracer);
  if (!options.workDir.empty()) {
    std::ofstream(options.workDir + "/trace-" + workload.name + ".json")
        << firstTracer.chromeTraceJson();
  }

  // The daemon: one round from an empty cache, and ping round trips.
  const ipet::SolveCacheStats before = server.service().cache().stats();
  const ServeRound round = runServeRound(workload, server, reference, checks);
  const ipet::SolveCacheStats after = server.service().cache().stats();
  std::vector<double> pings;
  {
    serve::Client client;
    std::string error;
    if (client.connect(server.port(), &error)) {
      for (int i = 0; i < 200; ++i) {
        const Clock::time_point t = Clock::now();
        if (client.ping(&error)) pings.push_back(microsSince(t));
      }
    }
    checks->expect(pings.size() == 200, "ping: " + error);
  }

  // Per-pass layer totals: traced passes alternate with untraced ones
  // until the time is up; the first traced pass counts too.
  std::vector<std::map<std::string, double>> layerSamples = {oneOff.micros};
  std::vector<double> tracedWall = {first.wallMicros};
  std::vector<double> untracedWall;
  double minCoverage = oneOff.minCoverage;
  do {
    std::vector<InprocResult> results;
    untracedWall.push_back(runInprocPass(workload, service, &results));
    obs::Tracer tracer;
    const TracedPass pass = tracedPass(workload, service, &tracer);
    cacheAndProtocol(workload, pass, &tracer);
    const SelfTimes self = selfTimes(tracer);
    layerSamples.push_back(self.micros);
    tracedWall.push_back(pass.wallMicros);
    minCoverage = std::min(minCoverage, self.minCoverage);
    for (std::size_t i = 0; i < workload.units.size(); ++i) {
      checkAnswer(workload.units[i], results[i], &reference[i], "in-process",
                  checks);
      checkAnswer(workload.units[i], toInprocResult(pass.results[i]),
                  &reference[i], "traced", checks);
    }
    checks->attempted += 2 * static_cast<std::int64_t>(workload.units.size());
  } while (microsSince(start) < options.seconds * 1e6 && !options.tiny);

  const auto layer = [&](const char* name) {
    std::vector<double> values;
    for (const auto& sample : layerSamples) {
      const auto it = sample.find(name);
      values.push_back(it == sample.end() ? 0.0 : it->second);
    }
    return median(values);
  };
  put(&m, "lang.parse_us", layer("lang.parse"), "us");
  put(&m, "codegen.compile_us", layer("codegen.compile"), "us");
  put(&m, "cfg.build_us", layer("cfg.build"), "us");
  put(&m, "ipet.init_us", layer("ipet.init"), "us");
  put(&m, "ipet.digest_us", layer("ipet.digest"), "us");
  // analyzeWith computes the digests again before it solves.
  put(&m, "ipet.solve_us", layer("ipet.solve") - layer("ipet.digest"), "us");
  put(&m, "solve_cache.lookup_us", layer("solve_cache.lookup"), "us");
  put(&m, "solve_cache.insert_us", layer("solve_cache.insert"), "us");
  put(&m, "serve.protocol_us", layer("serve.protocol"), "us");
  const auto once = [&](const char* name) {
    const auto it = oneOff.micros.find(name);
    return it == oneOff.micros.end() ? 0.0 : it->second;
  };
  put(&m, "lp.presolve_us", once("lp.presolve"), "us");
  put(&m, "lp.simplex_us", once("lp.simplex"), "us");
  put(&m, "ilp.bnb_us", once("ilp.bnb"), "us");
  put(&m, "tools.run_tool_us", once("tools.run_tool"), "us");

  std::int64_t sets = 0, pruned = 0, deduped = 0, dominated = 0,
               fallback = 0, nodes = 0, lpCalls = 0, pivots = 0,
               rowsRemoved = 0, integral = 0;
  for (const InprocResult& r : reference) {
    sets += r.stats.constraintSets;
    pruned += r.stats.prunedNullSets;
    deduped += r.stats.dedupedSets;
    dominated += r.stats.dominatedSets;
    fallback += r.stats.cacheFallbackSets;
    nodes += r.stats.nodesExpanded;
    lpCalls += r.stats.lpCalls;
    pivots += r.pivots;
    rowsRemoved += r.stats.presolveRowsRemoved;
    integral += r.stats.allFirstRelaxationsIntegral ? 1 : 0;
  }
  const auto count = [&](const char* name, std::int64_t value) {
    put(&m, name, static_cast<double>(value), "count");
  };
  count("lp.rows_in", replay.rowsIn);
  count("lp.rows_out", replay.rowsOut);
  count("lp.cols_in", replay.colsIn);
  count("lp.cols_out", replay.colsOut);
  count("lp.presolve_rows_removed", rowsRemoved);
  count("lp.pivots", pivots);
  count("ilp.nodes", nodes);
  count("ilp.lp_calls", lpCalls);
  count("ilp.replay_nodes", replay.nodes);
  count("ilp.first_relax_integral", integral);
  count("ipet.constraint_sets", sets);
  count("ipet.pruned_sets", pruned);
  count("ipet.deduped_sets", deduped);
  count("ipet.dominated_sets", dominated);
  count("ipet.cache_fallback_sets", fallback);

  const std::int64_t lookups = (after.boundHits - before.boundHits) +
                               (after.boundMisses - before.boundMisses);
  put(&m, "solve_cache.hit_ratio",
      lookups > 0 ? static_cast<double>(after.boundHits - before.boundHits) /
                        static_cast<double>(lookups)
                  : 0.0,
      "ratio");
  count("solve_cache.basis_hits", after.basisHits - before.basisHits);
  count("serve.cold_requests",
        static_cast<std::int64_t>(round.coldMicros.size()));
  count("serve.hit_requests", static_cast<std::int64_t>(round.hitMicros.size()));
  put(&m, "serve.ping_rtt_us", median(pings), "us");
  // The hit tail is a layer metric, not a gated one: on a shared host
  // its run-to-run spread exceeds any useful bound.
  put(&m, "serve_hit_p99_us", percentile(round.hitMicros, 0.99), "us");

  put(&m, "trace.overhead_ms",
      (median(tracedWall) - median(untracedWall)) / 1e3, "ms");
  put(&m, "trace.coverage", minCoverage, "ratio");

  // Per-program ccg rows: the service path on every Table-I program,
  // with its B&B nodes beside those of a cold ilp::solve replay of the
  // same exported ILPs (path parity).
  for (const suite::Benchmark& bench : suite::allBenchmarks()) {
    ipet::AnalysisRequest request;
    request.benchmark = bench.name;
    request.cacheMode = ipet::CacheMode::ConflictGraph;
    request.cachePolicy = ipet::CachePolicy::Bypass;
    const Clock::time_point t = Clock::now();
    const ipet::AnalysisResult result = service.analyze(request);
    const std::string row = "ccg." + bench.name;
    put(&m, row + ".analyze_ms", microsSince(t) / 1e3, "ms");
    ++checks->attempted;
    checks->expect(toInprocResult(result).exact,
                   "ccg row " + bench.name + ": verdict is not exact");
    std::vector<ipet::RequestConstraint> constraints;
    for (const auto& c : bench.constraints) constraints.push_back({c.text, c.scope});
    Replay cold;
    expectReplay(bench.name + "/ccg",
                 replaySystem(bench.source, bench.rootFunction, constraints,
                              request.cacheMode, nullptr, &cold),
                 result.estimate.bound, checks);
    count((row + ".nodes").c_str(), result.estimate.stats.nodesExpanded);
    count((row + ".replay_nodes").c_str(), cold.nodes);
  }
  return m;
}

}  // namespace perfbench
