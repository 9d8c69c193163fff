#include "cinderella/fuzz/oracle.hpp"

#include <optional>
#include <utility>

#include "cinderella/codegen/codegen.hpp"
#include "cinderella/explicitpath/enumerator.hpp"
#include "cinderella/ipet/analysis.hpp"
#include "cinderella/ipet/parametric.hpp"
#include "cinderella/sim/simulator.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"
#include "cinderella/support/text.hpp"

namespace cinderella::fuzz {

const char* checkKindStr(CheckKind kind) {
  switch (kind) {
    case CheckKind::Frontend: return "frontend";
    case CheckKind::Analysis: return "analysis";
    case CheckKind::ExplicitWorst: return "explicit-worst";
    case CheckKind::ExplicitBest: return "explicit-best";
    case CheckKind::SimAboveBound: return "sim-above-bound";
    case CheckKind::SimBelowBound: return "sim-below-bound";
    case CheckKind::SimFault: return "sim-fault";
    case CheckKind::CacheNotTighter: return "cache-not-tighter";
    case CheckKind::ConstraintMoved: return "constraint-moved";
    case CheckKind::JobsMismatch: return "jobs-mismatch";
    case CheckKind::PresolveMismatch: return "presolve-mismatch";
    case CheckKind::CacheReplay: return "cache-replay";
    case CheckKind::DegradedThrow: return "degraded-throw";
    case CheckKind::DegradedUnsound: return "degraded-unsound";
    case CheckKind::ParametricMismatch: return "parametric-mismatch";
  }
  return "?";
}

std::string OracleReport::summary() const {
  if (discrepancies.empty()) return "ok";
  const Discrepancy& first = discrepancies.front();
  return std::string(checkKindStr(first.kind)) + ": " + first.detail;
}

std::vector<std::string> embeddedConstraints(std::string_view source) {
  static constexpr std::string_view kPrefix = "//! constraint: ";
  std::vector<std::string> out;
  for (const auto& line : splitLines(source)) {
    if (line.rfind(kPrefix, 0) == 0) {
      out.push_back(line.substr(kPrefix.size()));
    }
  }
  return out;
}

DifferentialOracle::DifferentialOracle(OracleOptions options)
    : options_(std::move(options)) {
  CIN_REQUIRE(!options_.cacheModes.empty());
}

namespace {

/// Deterministic comparison surface of an Estimate: everything except
/// the wall-clock timings must be identical across thread counts.
bool sameDeterministicResult(const ipet::Estimate& a, const ipet::Estimate& b,
                             std::string* why) {
  const auto fail = [&](const std::string& message) {
    *why = message;
    return false;
  };
  if (a.bound != b.bound) return fail("bound differs");
  if (a.stats != b.stats) return fail("solve stats differ");
  if (a.setRecords.size() != b.setRecords.size()) {
    return fail("set records differ");
  }
  for (std::size_t i = 0; i < a.setRecords.size(); ++i) {
    const ipet::SetSolveRecord& ra = a.setRecords[i];
    const ipet::SetSolveRecord& rb = b.setRecords[i];
    if (ra.worst.stats != rb.worst.stats || ra.best.stats != rb.best.stats) {
      return fail("set " + std::to_string(i) + " solve stats differ");
    }
  }
  if (a.worstCounts.size() != b.worstCounts.size() ||
      a.bestCounts.size() != b.bestCounts.size()) {
    return fail("count-row sets differ");
  }
  for (std::size_t i = 0; i < a.worstCounts.size(); ++i) {
    const auto& ra = a.worstCounts[i];
    const auto& rb = b.worstCounts[i];
    if (ra.function != rb.function || ra.block != rb.block ||
        ra.count != rb.count) {
      return fail("worst counts differ");
    }
  }
  return true;
}

/// Comparison surface of a presolve A/B: the reduction engine changes
/// pivot/node counts by design, so only the interval and the per-set
/// solve outcomes (verdict, objectives, feasibility) must agree.
bool samePresolveResult(const ipet::Estimate& on, const ipet::Estimate& off,
                        std::string* why) {
  const auto fail = [&](const std::string& message) {
    *why = message;
    return false;
  };
  if (on.bound != off.bound) {
    return fail("bound " + intervalStr(on.bound.lo, on.bound.hi) +
                " != presolve-off " +
                intervalStr(off.bound.lo, off.bound.hi));
  }
  if (on.setRecords.size() != off.setRecords.size()) {
    return fail("set-record counts differ");
  }
  for (std::size_t i = 0; i < on.setRecords.size(); ++i) {
    const ipet::SetSolveRecord& a = on.setRecords[i];
    const ipet::SetSolveRecord& b = off.setRecords[i];
    if (a.verdict != b.verdict) {
      return fail("set " + std::to_string(a.setIndex) + " verdict " +
                  std::string(ipet::setVerdictStr(a.verdict)) +
                  " != presolve-off " + ipet::setVerdictStr(b.verdict));
    }
    if (a.worst.objective != b.worst.objective ||
        a.best.objective != b.best.objective ||
        a.worst.feasible != b.worst.feasible ||
        a.best.feasible != b.best.feasible) {
      return fail("set " + std::to_string(a.setIndex) +
                  " objectives differ from presolve-off");
    }
  }
  return true;
}

}  // namespace

OracleReport DifferentialOracle::check(const GeneratedProgram& program,
                                       std::uint64_t inputSeed) const {
  OracleReport report;
  const auto add = [&](CheckKind kind, std::string detail) {
    report.discrepancies.push_back({kind, std::move(detail)});
  };

  // 1. Frontend: a generated program that fails to compile is a
  //    generator bug, reported rather than thrown so the fuzzer can
  //    shrink it like any other failure.
  std::optional<codegen::CompileResult> compiled;
  try {
    compiled.emplace(codegen::compileSource(program.source));
  } catch (const Error& e) {
    add(CheckKind::Frontend, e.what());
    return report;
  }
  const auto fnIndex = compiled->module.findFunction(program.root);
  if (!fnIndex) {
    add(CheckKind::Frontend, "root function '" + program.root + "' missing");
    return report;
  }

  // 2. One estimate per cache mode (jobs = 1, no user constraints).
  std::vector<ipet::Estimate> estimates;
  for (const ipet::CacheMode mode : options_.cacheModes) {
    try {
      ipet::AnalyzerOptions aopt;
      aopt.cacheMode = mode;
      ipet::Analyzer analyzer(*compiled, program.root, aopt);
      estimates.push_back(analyzer.estimate());
      // Presolve A/B at every cache mode: the reduction engine must be
      // invisible in the interval and per-set verdicts.
      if (options_.checkPresolve) {
        ipet::SolveControl noPresolve;
        noPresolve.presolve = false;
        const ipet::Estimate off = analyzer.estimate(noPresolve);
        std::string why;
        if (!samePresolveResult(estimates.back(), off, &why)) {
          add(CheckKind::PresolveMismatch,
              std::string(ipet::cacheModeStr(mode)) + ": " + why);
        }
      }
    } catch (const Error& e) {
      add(CheckKind::Analysis,
          std::string(ipet::cacheModeStr(mode)) + ": " + e.what());
      return report;
    }
  }

  // 3. Internal consistency before any fault injection is applied.
  //    Refined cache modes may only tighten the worst-case bound.
  for (std::size_t m = 1; m < estimates.size(); ++m) {
    if (estimates[m].bound.hi > estimates[0].bound.hi) {
      add(CheckKind::CacheNotTighter,
          std::string(ipet::cacheModeStr(options_.cacheModes[m])) + " hi " +
              std::to_string(estimates[m].bound.hi) + " > " +
              std::to_string(estimates[0].bound.hi) + " (" +
              ipet::cacheModeStr(options_.cacheModes[0]) + ")");
    }
  }

  //    Redundant constraints must not move the reference bound, and the
  //    constrained analyzer doubles as the jobs-determinism subject (its
  //    disjunctions give the thread pool more than one set to race on).
  try {
    ipet::AnalyzerOptions aopt;
    aopt.cacheMode = options_.cacheModes[0];
    ipet::Analyzer analyzer(*compiled, program.root, aopt);
    for (const auto& text : program.constraints) {
      analyzer.addConstraint(text);
    }
    const ipet::Estimate single = analyzer.estimate();
    if (!program.constraints.empty() &&
        single.bound != estimates[0].bound) {
      add(CheckKind::ConstraintMoved,
          "redundant constraints moved the bound from " +
              intervalStr(estimates[0].bound.lo, estimates[0].bound.hi) +
              " to " + intervalStr(single.bound.lo, single.bound.hi));
    }
    for (const int jobs : options_.extraJobs) {
      ipet::SolveControl control;
      control.threads = jobs;
      const ipet::Estimate threaded = analyzer.estimate(control);
      std::string why;
      if (!sameDeterministicResult(single, threaded, &why)) {
        add(CheckKind::JobsMismatch,
            "jobs=" + std::to_string(jobs) + ": " + why);
      }
    }

    // Presolve A/B on the constrained analyzer: user constraints are
    // where reductions interact with the loop-bound and disjunction
    // rows.
    if (options_.checkPresolve) {
      ipet::SolveControl noPresolve;
      noPresolve.presolve = false;
      const ipet::Estimate off = analyzer.estimate(noPresolve);
      std::string why;
      if (!samePresolveResult(single, off, &why)) {
        add(CheckKind::PresolveMismatch, "constrained: " + why);
      }
    }
  } catch (const Error& e) {
    add(CheckKind::Analysis, std::string("constrained: ") + e.what());
  }

  //    Serve-cache equivalence: the same request twice through one
  //    AnalysisService.  The daemon answers repeat submissions from its
  //    content-addressed cache, so a second pass must hit and must not
  //    change the interval by a single bit.
  if (options_.checkSolveCache) {
    try {
      ipet::AnalysisService service;
      ipet::AnalysisRequest request;
      request.source = program.source;
      request.root = program.root;
      for (const auto& text : program.constraints) {
        request.constraints.push_back({text, ""});
      }
      request.cacheMode = options_.cacheModes[0];
      const ipet::AnalysisResult cold = service.analyze(request);
      const ipet::AnalysisResult replay = service.analyze(request);
      if (!replay.cacheHit) {
        add(CheckKind::CacheReplay,
            "identical resubmission missed the bound cache");
      } else if (replay.estimate.bound != cold.estimate.bound) {
        add(CheckKind::CacheReplay,
            "cache hit changed the bound from " +
                intervalStr(cold.estimate.bound.lo, cold.estimate.bound.hi) +
                " to " +
                intervalStr(replay.estimate.bound.lo,
                            replay.estimate.bound.hi));
      } else if (cold.cacheHit) {
        add(CheckKind::CacheReplay, "first submission hit an empty cache");
      }
    } catch (const Error& e) {
      add(CheckKind::Analysis, std::string("cache replay: ") + e.what());
    }
  }

  //    Parametric equivalence: `x0 <= @P` is redundant for any P >= 1
  //    (the root entry block executes exactly once), so it is safe to
  //    attach to every generated program.  Even though the resulting
  //    formula is typically constant in P, the check drives the whole
  //    parametric stack — the @-parameter parser, RHS folding under
  //    bindParam, the region-splitting engine, and exact formula
  //    evaluation — and every grid point must reproduce the direct
  //    bound bit for bit, in every cache mode.
  if (options_.checkParametric) {
    const std::vector<ipet::ParamDecl> params = {{"P", 1, 3}};
    for (const ipet::CacheMode mode : options_.cacheModes) {
      try {
        ipet::AnalyzerOptions aopt;
        aopt.cacheMode = mode;
        ipet::Analyzer analyzer(*compiled, program.root, aopt);
        for (const auto& text : program.constraints) {
          analyzer.addConstraint(text);
        }
        analyzer.addConstraint("x0 <= 3 * @P");
        const ipet::ParametricResult parametric =
            ipet::solveParametric(analyzer, params);
        for (std::int64_t p = params[0].lo; p <= params[0].hi; ++p) {
          analyzer.clearParamBindings();
          analyzer.bindParam("P", p);
          const ipet::Interval direct = analyzer.estimate().bound;
          const ipet::Interval priced = parametric.formula.evaluate({p});
          if (priced != direct) {
            add(CheckKind::ParametricMismatch,
                std::string(ipet::cacheModeStr(mode)) + ": P=" +
                    std::to_string(p) + " formula " +
                    intervalStr(priced.lo, priced.hi) + " != direct " +
                    intervalStr(direct.lo, direct.hi));
          }
        }
        analyzer.clearParamBindings();
      } catch (const Error& e) {
        add(CheckKind::Analysis, std::string("parametric: ") + e.what());
      }
    }
  }

  //    Degradation drill: the same analysis under a process-wide fault
  //    injector.  The estimate must survive (never throw), and whenever
  //    it claims soundness its interval must enclose the clean one —
  //    that is exactly what "degrades to a sound bound" means.
  if (options_.faultRate > 0.0) {
    support::FaultPlan plan;
    plan.seed = options_.faultSeed;
    plan.lpPivotRate = options_.faultRate;
    plan.threadTaskRate = options_.faultRate;
    plan.deadlineClockRate = options_.faultRate;
    support::FaultInjector injector(plan);
    const support::ScopedFaultInjector scoped(&injector);
    try {
      ipet::AnalyzerOptions aopt;
      aopt.cacheMode = options_.cacheModes[0];
      ipet::Analyzer analyzer(*compiled, program.root, aopt);
      for (const auto& text : program.constraints) {
        analyzer.addConstraint(text);
      }
      ipet::SolveControl control;
      control.threads = options_.faultJobs;
      const ipet::Estimate degraded = analyzer.estimate(control);
      report.faultIssues = static_cast<int>(degraded.issues.size());
      report.faultRunSound = degraded.sound();
      if (degraded.sound() && !degraded.bound.encloses(estimates[0].bound)) {
        add(CheckKind::DegradedUnsound,
            "degraded " + intervalStr(degraded.bound.lo, degraded.bound.hi) +
                " claims soundness but loses clean " +
                intervalStr(estimates[0].bound.lo, estimates[0].bound.hi));
      }
    } catch (const std::exception& e) {
      add(CheckKind::DegradedThrow,
          std::string("estimate threw under fault injection: ") + e.what());
    } catch (...) {
      add(CheckKind::DegradedThrow,
          "estimate threw a non-std exception under fault injection");
    }

    // The same drill with presolve off (fresh injector so both runs see
    // the same fault schedule): disabling the reduction engine must not
    // change what "degrades to a sound bound" means.
    if (options_.checkPresolve) {
      support::FaultInjector offInjector(plan);
      const support::ScopedFaultInjector scopedOff(&offInjector);
      try {
        ipet::AnalyzerOptions aopt;
        aopt.cacheMode = options_.cacheModes[0];
        ipet::Analyzer analyzer(*compiled, program.root, aopt);
        for (const auto& text : program.constraints) {
          analyzer.addConstraint(text);
        }
        ipet::SolveControl control;
        control.threads = options_.faultJobs;
        control.presolve = false;
        const ipet::Estimate degraded = analyzer.estimate(control);
        if (degraded.sound() &&
            !degraded.bound.encloses(estimates[0].bound)) {
          add(CheckKind::PresolveMismatch,
              "presolve-off degraded " +
                  intervalStr(degraded.bound.lo, degraded.bound.hi) +
                  " claims soundness but loses clean " +
                  intervalStr(estimates[0].bound.lo, estimates[0].bound.hi));
        }
      } catch (const std::exception& e) {
        add(CheckKind::DegradedThrow,
            std::string("presolve-off estimate threw under fault "
                        "injection: ") +
                e.what());
      } catch (...) {
        add(CheckKind::DegradedThrow,
            "presolve-off estimate threw a non-std exception under fault "
            "injection");
      }
    }
  }

  // Fault injection (tests only): perturb the bounds *after* the
  // consistency checks so the injected error is attributed to the
  // differential oracles below, exactly like a real analyzer bug.
  for (auto& est : estimates) est.bound.hi += options_.injectBoundHiDelta;
  report.bound = estimates[0].bound;

  // 4. Exact agreement vs complete explicit enumeration.  Valid against
  //    the all-miss estimate only: the enumerator charges static worst
  //    (all-miss) and best (all-hit) block costs, the same cost basis.
  if (options_.compareExplicit) {
    std::optional<std::size_t> allMiss;
    for (std::size_t m = 0; m < options_.cacheModes.size(); ++m) {
      if (options_.cacheModes[m] == ipet::CacheMode::AllMiss) allMiss = m;
    }
    if (allMiss) {
      try {
        explicitpath::EnumOptions eo;
        eo.maxPaths = options_.maxExplicitPaths;
        eo.maxSteps = options_.maxExplicitSteps;
        const explicitpath::EnumResult ex =
            explicitpath::enumeratePaths(*compiled, program.root, eo);
        report.explicitComplete = ex.complete;
        report.pathsExplored = ex.pathsExplored;
        if (ex.complete) {
          const std::int64_t worst =
              ex.worst + options_.injectExplicitWorstDelta;
          const ipet::Interval& bound = estimates[*allMiss].bound;
          if (bound.hi != worst) {
            add(CheckKind::ExplicitWorst,
                "ipet hi " + std::to_string(bound.hi) +
                    " != explicit worst " + std::to_string(worst));
          }
          if (bound.lo != ex.best) {
            add(CheckKind::ExplicitBest,
                "ipet lo " + std::to_string(bound.lo) +
                    " != explicit best " + std::to_string(ex.best));
          }
        }
      } catch (const Error& e) {
        add(CheckKind::Analysis, std::string("explicit: ") + e.what());
      }
    }
  }

  // 5. Bracketing: every simulated run must land inside every mode's
  //    interval.  Random arguments and random int-array contents; the
  //    generator guarantees no fault paths, so a SimulationError is a
  //    finding, not noise.
  if (options_.simTrials > 0) {
    sim::Simulator simulator(compiled->module);
    Xorshift64 rng(inputSeed ? inputSeed : 1);
    const int numParams = compiled->module.function(*fnIndex).numParams;
    for (int trial = 0; trial < options_.simTrials; ++trial) {
      std::vector<std::int64_t> args;
      for (int a = 0; a < numParams; ++a) args.push_back(rng.range(-20, 20));
      sim::SimOptions simOptions;
      simOptions.maxInstructions = options_.maxSimInstructions;
      for (const auto& global : compiled->module.globals()) {
        if (global.isFloat) continue;
        std::vector<std::uint64_t> words(
            static_cast<std::size_t>(global.size));
        for (auto& w : words) w = sim::encodeInt(rng.range(-50, 50));
        simOptions.patches.push_back({global.name, std::move(words)});
      }
      try {
        const sim::SimResult run =
            simulator.run(*fnIndex, args, simOptions);
        ++report.simRuns;
        for (std::size_t m = 0; m < estimates.size(); ++m) {
          const ipet::Interval& bound = estimates[m].bound;
          const char* mode = ipet::cacheModeStr(options_.cacheModes[m]);
          if (run.cycles > bound.hi) {
            add(CheckKind::SimAboveBound,
                std::string(mode) + ": simulated " +
                    std::to_string(run.cycles) + " cycles > hi " +
                    std::to_string(bound.hi));
          }
          if (run.cycles < bound.lo) {
            add(CheckKind::SimBelowBound,
                std::string(mode) + ": simulated " +
                    std::to_string(run.cycles) + " cycles < lo " +
                    std::to_string(bound.lo));
          }
        }
      } catch (const Error& e) {
        add(CheckKind::SimFault, e.what());
        break;  // further trials would fault the same way
      }
    }
  }

  return report;
}

OracleReport DifferentialOracle::checkSource(std::string_view source,
                                             std::string_view root,
                                             std::uint64_t inputSeed) const {
  GeneratedProgram program;
  program.source = std::string(source);
  program.root = std::string(root);
  program.constraints = embeddedConstraints(source);
  return check(program, inputSeed);
}

}  // namespace cinderella::fuzz
