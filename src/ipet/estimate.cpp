// Analyzer::estimate: one pair of ILPs per conjunctive constraint set,
// merged into the interval enclosing them all (paper Section III-D).  An
// EstimateRun holds what one call's stages share and runs them in order:
// plan() skips duplicate and dominated sets, dispatch() runs solveSet()
// per scheduled set (probe, then solveSide() for the worst and the best
// ILP), and merge() folds the outcomes in set-index order, so the result
// is identical for every thread count.
//
// A fault (deadline, node budget, numeric breakdown, injection) never
// aborts the estimate: the side walks the degradation ladder instead —
// the set's own LP relaxation (Relaxed), the base problem's (Structural),
// then Failed.  Only user/model errors (AnalysisError) abort.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/lp/simplex.hpp"
#include "cinderella/lp/tableau.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"
#include "cinderella/support/thread_pool.hpp"

namespace cinderella::ipet {

const char* setVerdictStr(SetVerdict verdict) {
  switch (verdict) {
    case SetVerdict::Exact:
      return "exact";
    case SetVerdict::Relaxed:
      return "relaxed";
    case SetVerdict::Structural:
      return "structural";
    case SetVerdict::Failed:
      return "failed";
  }
  return "?";
}

void SolveStats::addSolve(const IlpSolveRecord& solve) {
  ++ilpSolves;
  lpCalls += solve.lpCalls;
  nodesExpanded += solve.nodes;
  totalPivots += solve.pivots;
  checkedPromotions += solve.checkedPromotions;
  blandRestarts += solve.blandRestarts;
  devexPivots += solve.devexPivots;
  presolveRowsRemoved += solve.presolveRowsRemoved;
  presolveColsFixed += solve.presolveColsFixed;
  presolveSubstitutions += solve.presolveSubstitutions;
  presolveRounds += solve.presolveRounds;
  allFirstRelaxationsIntegral &= solve.firstRelaxationIntegral;
}

bool SolveStats::addSet(const SetSolveRecord& record) {
  if (record.pruned) {
    ++prunedNullSets;
    return false;
  }
  if (record.sharedWith >= 0) {
    ++(record.dominated ? dominatedSets : dedupedSets);
    return false;
  }
  // Indexed by SetVerdict; exact sets are the remainder.
  int* const tally[] = {nullptr, &relaxedSets, &structuralSets, &failedSets};
  if (int* const count = tally[static_cast<int>(record.verdict)]) ++*count;
  for (const IlpSolveRecord* solve : {&record.worst, &record.best}) {
    if (solve->solved) addSolve(*solve);
  }
  return true;
}

IlpSolveRecord ilpSolveRecord(const ilp::IlpSolution& solution) {
  IlpSolveRecord record;
  record.solved = true;
  record.feasible = solution.status == ilp::IlpStatus::Optimal;
  record.nodes = solution.stats.nodesExpanded;
  record.lpCalls = solution.stats.lpCalls;
  record.pivots = solution.stats.totalPivots;
  record.firstRelaxationIntegral = solution.stats.firstRelaxationIntegral;
  record.checkedPromotions = solution.stats.checkedPromotions;
  record.blandRestarts = solution.stats.blandRestarts;
  record.devexPivots = solution.stats.devexPivots;
  record.presolveRowsRemoved = solution.stats.presolveRowsRemoved;
  record.presolveColsFixed = solution.stats.presolveColsFixed;
  record.presolveSubstitutions = solution.stats.presolveSubstitutions;
  record.presolveRounds = solution.stats.presolveRounds;
  if (record.feasible) {
    // Prefer the checked integer recomputation: the double objective
    // silently loses precision past 2^53.
    record.objective =
        solution.objectiveIsExact
            ? solution.objectiveExact
            : static_cast<std::int64_t>(std::llround(solution.objective));
  }
  return record;
}

bool cancelRequested(const SolveControl& control) {
  return control.cancel != nullptr &&
         control.cancel->load(std::memory_order_relaxed);
}

bool deadlineExpired(const SolveControl& control,
                     std::chrono::steady_clock::time_point start) {
  // Fault-injection seam: a DeadlineClock fault expires the deadline
  // spuriously, driving the partial-result path without real waiting.
  support::FaultInjector* const injector = support::faultInjector();
  if (injector != nullptr &&
      injector->shouldFault(support::FaultSite::DeadlineClock)) {
    return true;
  }
  return control.deadline.count() != 0 &&
         std::chrono::steady_clock::now() - start >= control.deadline;
}

ErrorCode stopCode(const SolveControl& control,
                   const ilp::IlpSolution& solution, int maxNodes) {
  if (solution.status == ilp::IlpStatus::Interrupted) {
    return cancelRequested(control) ? ErrorCode::Cancelled
                                    : ErrorCode::DeadlineExpired;
  }
  return solution.stats.nodesExpanded >= maxNodes
             ? ErrorCode::NodeBudgetExhausted
             : ErrorCode::PivotLimit;
}

std::optional<std::string> overMemoryCeiling(const SolveControl& control,
                                             const lp::Problem& p) {
  if (control.maxMemoryBytes == 0) return std::nullopt;
  const std::size_t bytes = lp::tableauBytes(p);
  if (bytes <= control.maxMemoryBytes) return std::nullopt;
  return "estimated solve footprint " + std::to_string(bytes) +
         " bytes exceeds the ceiling of " +
         std::to_string(control.maxMemoryBytes) + " bytes";
}

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t microsSince(Clock::time_point t0) {
  const auto elapsed = Clock::now() - t0;
  return std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
}

/// Sound integer rounding for relaxation bounds.  A max-ILP's LP
/// relaxation over-estimates its optimum, so flooring (plus the LP
/// tolerance) keeps the upper bound sound; symmetrically for min.
std::int64_t soundBound(double v, bool upper) {
  constexpr double kRelaxTol = 1e-6;
  constexpr double kInt64Edge = 9.2e18;  // doubles beyond here can't narrow
  if (v >= kInt64Edge) return std::numeric_limits<std::int64_t>::max();
  if (v <= -kInt64Edge) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(upper ? std::floor(v + kRelaxTol)
                                         : std::ceil(v - kRelaxTol));
}

/// The issue code of an absorbed solver fault.
ErrorCode faultCode(const std::exception& e) {
  return dynamic_cast<const InjectedFaultError*>(&e) != nullptr
             ? ErrorCode::InjectedFault
             : ErrorCode::Internal;
}

}  // namespace

struct Analyzer::EstimateRun {
 public:
  EstimateRun(const Analyzer& analyzer, const SolveControl& control)
      : analyzer_(analyzer),
        control_(control),
        span_(control.tracer, "estimate", "ipet"),
        sys_(analyzer.system(control.tracer)),
        ilpOptions_(analyzer.options_.ilpOptions),
        scheduledSets_(static_cast<int>(sys_.sets.size())),
        outcomes_(sys_.sets.size()) {
    span_.arg("sets", static_cast<int>(sys_.sets.size()))
        .arg("cache-mode", cacheModeStr(analyzer.options_.cacheMode))
        .arg("contexts", static_cast<int>(analyzer.contexts_.size()))
        .arg("flow-vars", analyzer.numFlowVars_);
    if (control.maxNodes > 0) ilpOptions_.maxNodes = control.maxNodes;
    ilpOptions_.lpOptions.presolve = control.presolve;
    // A deadline (or cancellation) also stops a running ILP between
    // nodes, so a single slow set cannot blow the whole budget.
    if (control.deadline.count() != 0 || control.cancel != nullptr ||
        support::faultInjector() != nullptr) {
      ilpOptions_.interrupt = [this] {
        return cancelRequested(control_) || deadlineExpired(control_, start_);
      };
    }
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      SetSolveRecord& rec = outcomes_[i].record;
      rec.setIndex = static_cast<int>(i);
      rec.userConstraints = static_cast<int>(sys_.sets[i].size());
    }
  }
  // Worker tasks and the ILP interrupt hold `this`.
  EstimateRun(const EstimateRun&) = delete;
  EstimateRun& operator=(const EstimateRun&) = delete;

  /// Skips every set whose canonical rows equal, or properly contain,
  /// another set's: more rows carve a sub-region, which the covering
  /// set's interval already encloses.  Runs before dispatch, so the
  /// schedule is identical across thread counts.
  void plan() {
    const Dnf& sets = sys_.sets;
    if (sets.size() > 1) {
      obs::Span dedupSpan(control_.tracer, "dedup-sets", "ipet");
      // Identical sets: the first occurrence is the representative.
      std::vector<std::vector<std::string>> keys(sets.size());
      std::map<std::vector<std::string>, int> firstByKey;
      std::vector<std::size_t> reps;
      for (std::size_t i = 0; i < sets.size(); ++i) {
        keys[i] = analyzer_.concreteSetKeys(sets[i]);
        const auto [it, inserted] =
            firstByKey.try_emplace(keys[i], static_cast<int>(i));
        if (inserted) {
          reps.push_back(i);
        } else {
          outcomes_[i].record.sharedWith = it->second;
        }
      }
      // Proper-subset domination among the representatives, smallest row
      // count first so a dominator is always scheduled itself.  Quadratic
      // in representatives, so capped.
      if (reps.size() <= 256) {
        std::stable_sort(
            reps.begin(), reps.end(), [&](std::size_t a, std::size_t b) {
              return keys[a].size() < keys[b].size();
            });
        std::vector<std::size_t> kept;
        for (const std::size_t i : reps) {
          const auto& rows = keys[i];
          const auto dominator =
              std::find_if(kept.begin(), kept.end(), [&](std::size_t j) {
                return keys[j].size() < rows.size() &&
                       std::includes(rows.begin(), rows.end(),
                                     keys[j].begin(), keys[j].end());
              });
          if (dominator == kept.end()) {
            kept.push_back(i);
          } else {
            outcomes_[i].record.sharedWith = static_cast<int>(*dominator);
            outcomes_[i].record.dominated = true;
          }
        }
      }
      // Resolve chains (duplicate -> dominated representative -> its
      // dominator) so every skipped set points at a set that runs.
      for (SetOutcome& out : outcomes_) {
        SetSolveRecord& rec = out.record;
        while (rec.sharedWith >= 0 && record(rec.sharedWith).sharedWith >= 0) {
          const SetSolveRecord& next = record(rec.sharedWith);
          rec.dominated = rec.dominated || next.dominated;
          rec.sharedWith = next.sharedWith;
        }
        if (rec.sharedWith >= 0) --scheduledSets_;
      }
      dedupSpan.arg("scheduled", scheduledSets_);
    }
    span_.arg("scheduled", scheduledSets_);
  }

  /// Runs solveSet() for every scheduled set.
  void dispatch() {
    const int requested = control_.threads > 0
                              ? control_.threads
                              : support::ThreadPool::hardwareThreads();
    const int workers = std::min(requested, std::max(1, scheduledSets_));
    span_.arg("workers", workers);
    obs::Span dispatchSpan(control_.tracer, "solve-sets", "ipet");
    dispatchSpan.arg("workers", workers)
        .arg("sets", static_cast<int>(sys_.sets.size()))
        .arg("scheduled", scheduledSets_);
    std::optional<support::ThreadPool> pool;
    if (workers > 1) pool.emplace(workers);
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      if (outcomes_[i].record.sharedWith >= 0) continue;
      if (pool) {
        pool->submit([this, i] { solveSet(i); });
      } else {
        solveSet(i);
      }
    }
    if (pool) pool->wait();
  }

  /// Folds the outcomes into the estimate in set-index order.
  Estimate merge() {
    obs::Span mergeSpan(control_.tracer, "merge", "ipet");
    recoverUnsolved();
    // The first user/model error (by index) wins, as in a serial solve.
    for (const SetOutcome& out : outcomes_) {
      if (out.error) std::rethrow_exception(out.error);
    }
    if (cancelRequested(control_)) {
      throw AnalysisError("estimate() cancelled");
    }
    for (const SetOutcome& out : outcomes_) {
      if (out.skipped) throw AnalysisError("estimate() cancelled");
    }
    Estimate result;
    result.stats.constraintSets = static_cast<int>(sys_.sets.size());
    result.stats.cacheFlowVars = sys_.cacheFlowVars;
    result.stats.cacheFallbackSets = sys_.cacheFallbackSets;
    result.timedOut = sawDeadline_.load(std::memory_order_relaxed);
    result.setRecords.reserve(outcomes_.size());
    // Per side, the extreme bound so far.  Degraded bounds compete with
    // exact ones; only an exact winner has a witness point.
    std::array<const Side*, 2> extreme{};
    for (SetOutcome& out : outcomes_) {
      result.setRecords.push_back(out.record);
      for (auto& issue : out.issues) result.issues.push_back(std::move(issue));
      if (!result.stats.addSet(out.record)) continue;
      for (std::size_t side = 0; side < kSides.size(); ++side) {
        const Side& s = out.sides[side];
        const Side* cur = extreme[side];
        if (s.have && (cur == nullptr || (kSides[side].upper()
                                              ? s.bound > cur->bound
                                              : s.bound < cur->bound))) {
          extreme[side] = &s;
        }
      }
    }
    if (result.stats.prunedNullSets == static_cast<int>(outcomes_.size())) {
      throw AnalysisError(
          "all functionality constraint sets are infeasible (null)");
    }
    // With no set bounding a side, only a failed rung or the deadline
    // can explain it; the side then takes its trivially sound extreme.
    if ((extreme[0] == nullptr || extreme[1] == nullptr) &&
        result.stats.failedSets == 0 && !result.timedOut) {
      throw AnalysisError("no feasible constraint set yielded a bound (all "
                          "sets integer-infeasible)");
    }
    for (std::size_t side = 0; side < kSides.size(); ++side) {
      const SideSpec& spec = kSides[side];
      const Side* s = extreme[side];
      result.bound.*spec.end = s != nullptr ? s->bound : spec.unbounded;
      if (s != nullptr && !s->values.empty()) {
        result.*spec.counts = aggregateCounts(s->values);
      }
    }
    return result;
  }

 private:
  /// The worst case (max, all-miss costs) or the best (min, all-hit).
  struct SideSpec {
    const char* phase;  ///< SolveIssue phase and ILP span name
    lp::LinearExpr System::*objective;
    lp::Sense sense;
    IlpSolveRecord SetSolveRecord::*record;
    std::int64_t Interval::*end;
    std::vector<BlockCountRow> Estimate::*counts;
    /// The trivially sound end of the interval when no set bounds it.
    std::int64_t unbounded;
    /// Non-null when an unbounded ILP means a broken model.
    const char* unboundedError;

    [[nodiscard]] bool upper() const { return sense == lp::Sense::Maximize; }
  };
  static constexpr std::array<SideSpec, 2> kSides{{
      {"ilp-worst", &System::worstObjective, lp::Sense::Maximize,
       &SetSolveRecord::worst, &Interval::hi, &Estimate::worstCounts,
       std::numeric_limits<std::int64_t>::max(),
       "worst-case ILP is unbounded — a loop is missing its bound"},
      {"ilp-best", &System::bestObjective, lp::Sense::Minimize,
       &SetSolveRecord::best, &Interval::lo, &Estimate::bestCounts, 0,
       nullptr},
  }};

  /// One side's contribution of one set.
  struct Side {
    bool have = false;  ///< `bound` enters the interval
    std::int64_t bound = 0;
    std::vector<double> values;  ///< witness of an exact bound, else empty
  };

  /// One set's task result; deterministic except for wall-clock fields.
  struct SetOutcome {
    bool started = false;  ///< task ran at all (false: lost to a fault)
    bool skipped = false;  ///< cancellation observed before solving
    std::array<Side, 2> sides;  ///< indexed like kSides
    SetSolveRecord record;
    std::vector<SolveIssue> issues;
    std::exception_ptr error;  ///< user/model error, rethrown by merge()

    void note(ErrorCode code, const char* phase, std::string detail) {
      if (record.issue == ErrorCode::None) record.issue = code;
      issues.push_back({record.setIndex, code, phase, std::move(detail)});
    }
  };

  SetSolveRecord& record(int set) {
    return outcomes_[static_cast<std::size_t>(set)].record;
  }

  /// One set's task; its outcome is keyed by set index.
  void solveSet(std::size_t index) noexcept {
    SetOutcome& out = outcomes_[index];
    out.started = true;
    const auto setStart = Clock::now();
    // This span is also the thread-pool task lifetime: one task per set.
    obs::Span setSpan(control_.tracer, "set-solve", "solve");
    setSpan.arg("set", static_cast<int>(index));
    try {
      setSpan.arg("verdict", attemptSet(out, index));
    } catch (const AnalysisError&) {
      // User/model error (unbounded ILP, bad constraint): still aborts
      // the whole estimate — degradation must not mask a broken model.
      out.error = std::current_exception();
    } catch (const std::exception& e) {
      // Anything else is absorbed: degrade the unresolved sides.
      degrade(out, faultCode(e), "set", e.what());
    } catch (...) {
      degrade(out, ErrorCode::Internal, "set", "unknown exception");
    }
    out.record.wallMicros = microsSince(setStart);
  }

  /// solveSet()'s body; returns the set span's verdict.
  const char* attemptSet(SetOutcome& out, std::size_t index) {
    if (cancelRequested(control_)) {
      out.skipped = true;
      return "skipped";
    }
    if (deadlineExpired(control_, start_)) {
      // Degrade this set instead of aborting; completed sets stay.
      sawDeadline_.store(true, std::memory_order_relaxed);
      degrade(out, ErrorCode::DeadlineExpired, "set",
              "deadline expired before this set was solved");
      return setVerdictStr(out.record.verdict);
    }
    lp::Problem p = analyzer_.materializeSet(sys_, sys_.sets[index]);
    // Backpressure quota, checked before the tableau is allocated, so a
    // hostile or runaway request can never balloon the process.
    if (std::optional<std::string> over = overMemoryCeiling(control_, p)) {
      degrade(out, ErrorCode::MemoryCeiling, "set", std::move(*over));
      return setVerdictStr(out.record.verdict);
    }
    // The probe and both root relaxations share one tableau over these
    // rows: the dual simplex from its slack basis answers the probe, and
    // the primal simplex under each objective in turn gives each ILP's
    // root.  Branch-and-bound children dive from copies of it.  The rows
    // are presolved once for all of these; the span covers the presolve
    // and the tableau build.
    std::optional<lp::LiveTableau> live;
    {
      obs::Span presolveSpan(control_.tracer, "lp-presolve", "solve");
      presolveSpan.arg("set", out.record.setIndex);
      live.emplace(p, ilpOptions_.lpOptions);
    }
    if (!analyzer_.options_.disableNullSetPruning && probeNull(out, *live)) {
      out.record.pruned = true;
      return "pruned";
    }
    for (std::size_t side = 0; side < kSides.size(); ++side) {
      solveSide(out, side, p, *live);
    }
    return setVerdictStr(out.record.verdict);
  }

  /// Null-set pruning (paper III-D): true when the LP probe proves it.
  bool probeNull(SetOutcome& out, lp::LiveTableau& live) {
    SetSolveRecord& rec = out.record;
    obs::Span probeSpan(control_.tracer, "lp-probe", "solve");
    probeSpan.arg("set", rec.setIndex);
    const auto probeStart = Clock::now();
    try {
      const lp::Solution sol = live.feasibility();
      rec.probePivots = sol.pivots;
      rec.probeMicros = microsSince(probeStart);
      const bool null = sol.status == lp::SolveStatus::Infeasible;
      probeSpan.arg("pivots", sol.pivots)
          .arg("verdict", null ? "null" : "feasible");
      return null;
    } catch (const SolverError& e) {
      // Pruning is only an optimization; fall through to the ILPs.
      rec.probeMicros = microsSince(probeStart);
      out.note(faultCode(e), "probe", e.what());
      probeSpan.arg("verdict", "faulted");
      return false;
    }
  }

  /// The ILP of one side, then its rung of the ladder.
  void solveSide(SetOutcome& out, std::size_t side, lp::Problem& p,
                 lp::LiveTableau& live) {
    const SideSpec& spec = kSides[side];
    p.setObjective(sys_.*spec.objective, spec.sense);
    try {
      ilp::IlpSolution solution = runIlp(out, spec, p, live);
      if (solution.status == ilp::IlpStatus::Unbounded &&
          spec.unboundedError != nullptr) {
        throw AnalysisError(spec.unboundedError);
      }
      settle(out, side, solution);
    } catch (const SolverError& e) {
      out.note(faultCode(e), spec.phase, e.what());
      relax(out, side, p);
    }
  }

  /// One ILP; fills the side's record and traces the solve.
  ilp::IlpSolution runIlp(SetOutcome& out, const SideSpec& spec,
                          const lp::Problem& p, lp::LiveTableau& live) {
    IlpSolveRecord& slot = out.record.*spec.record;
    obs::Span ilpSpan(control_.tracer, spec.phase, "solve");
    ilpSpan.arg("set", out.record.setIndex);
    const auto ilpStart = Clock::now();
    ilp::IlpOptions setOptions = ilpOptions_;
    setOptions.live = &live;
    ilp::IlpSolution solution = ilp::solve(p, setOptions);
    slot = ilpSolveRecord(solution);
    slot.wallMicros = microsSince(ilpStart);
    ilpSpan.arg("verdict", ilp::ilpStatusStr(solution.status))
        .arg("nodes", solution.stats.nodesExpanded)
        .arg("lp-calls", solution.stats.lpCalls)
        .arg("cold-nodes", solution.stats.coldNodes)
        .arg("pivots", solution.stats.totalPivots);
    if (slot.feasible) ilpSpan.arg("objective", slot.objective);
    return solution;
  }

  /// Takes a finished ILP's optimum, or walks the ladder without one.
  void settle(SetOutcome& out, std::size_t side, ilp::IlpSolution& solution) {
    const SideSpec& spec = kSides[side];
    const std::int64_t objective = (out.record.*spec.record).objective;
    if (solution.status == ilp::IlpStatus::Optimal) {
      if (!solution.objectiveSaturated) {
        out.sides[side] = {true, objective, std::move(solution.values)};
        return;
      }
      // The true objective lies beyond int64; the saturated value is
      // reported as a (representation-limited) relaxed bound.
      out.note(ErrorCode::NumericOverflow, spec.phase,
               "objective exceeds 64-bit range; bound saturated");
      fallBack(out, side, SetVerdict::Relaxed, objective);
      return;
    }
    if (solution.status == ilp::IlpStatus::Infeasible) {
      return;  // genuinely empty on this side; contributes nothing
    }
    // Limit or Interrupted: classify the budget that ran out.
    const ErrorCode code = stopCode(control_, solution, ilpOptions_.maxNodes);
    if (code == ErrorCode::DeadlineExpired) {
      sawDeadline_.store(true, std::memory_order_relaxed);
    }
    out.note(code, spec.phase,
             std::string("integer solve stopped: ") +
                 ilp::ilpStatusStr(solution.status));
    if (solution.haveRelaxationBound) {
      fallBack(out, side, SetVerdict::Relaxed,
               soundBound(solution.relaxationBound, spec.upper()));
    } else {
      applyStructural(out, side);
    }
  }

  /// After the integer solve died mid-flight: the set's own root LP
  /// relaxation bounds this side, or else the structural bound.
  void relax(SetOutcome& out, std::size_t side, const lp::Problem& p) {
    try {
      const lp::Solution sol = lp::solve(p, ilpOptions_.lpOptions);
      out.record.fallbackPivots += sol.pivots;
      if (sol.status == lp::SolveStatus::Infeasible) {
        return;  // provably empty set: nothing to bound, and soundly so
      }
      if (sol.status == lp::SolveStatus::Optimal) {
        fallBack(out, side, SetVerdict::Relaxed,
                 soundBound(sol.objective, kSides[side].upper()));
        return;
      }
    } catch (...) {
      // fall through to the structural rung
    }
    applyStructural(out, side);
  }

  /// Notes the issue; every side without a bound yet goes structural.
  void degrade(SetOutcome& out, ErrorCode code, const char* phase,
               std::string detail) {
    out.note(code, phase, std::move(detail));
    for (std::size_t side = 0; side < kSides.size(); ++side) {
      if (!out.sides[side].have) applyStructural(out, side);
    }
  }

  /// Last rung before Failed: the shared structural bound.
  void applyStructural(SetOutcome& out, std::size_t side) {
    std::call_once(structuralOnce_, [this] { solveStructural(); });
    const std::optional<std::int64_t>& bound = structural_[side];
    if (!bound) {
      out.record.verdict = SetVerdict::Failed;
      return;
    }
    fallBack(out, side, SetVerdict::Structural, *bound);
  }

  /// The base problem's own LP relaxation per side: every set's region
  /// lies inside the base region, so it bounds every set's ILP soundly.
  /// Solved once per call, by whichever worker first needs it.
  void solveStructural() {
    obs::Span fallbackSpan(control_.tracer, "structural-fallback", "solve");
    for (std::size_t side = 0; side < kSides.size(); ++side) {
      const SideSpec& spec = kSides[side];
      try {
        lp::Problem p = sys_.problem;
        p.setObjective(sys_.*spec.objective, spec.sense);
        const lp::Solution sol = lp::solve(p, ilpOptions_.lpOptions);
        if (sol.status == lp::SolveStatus::Optimal) {
          structural_[side] = soundBound(sol.objective, spec.upper());
        }
      } catch (...) {
        // Even the fallback can fault (e.g. under injection); a set that
        // needs this side is then marked Failed.
      }
    }
  }

  /// Records a degraded `bound` as one side's contribution.
  static void fallBack(SetOutcome& out, std::size_t side, SetVerdict verdict,
                       std::int64_t bound) {
    IlpSolveRecord& slot = out.record.*kSides[side].record;
    slot.degraded = true;
    slot.fallbackBound = bound;
    out.record.verdict = std::max(out.record.verdict, verdict);
    out.sides[side].have = true;
    out.sides[side].bound = bound;
  }

  /// Fills the sets that did not run: a skipped set is null when its
  /// covering set is (its region is contained), and a task lost to a
  /// pool fault (the pool has drained) takes the structural bound.
  void recoverUnsolved() {
    for (SetOutcome& out : outcomes_) {
      SetSolveRecord& rec = out.record;
      if (rec.sharedWith >= 0) {
        rec.pruned = record(rec.sharedWith).pruned;
      } else if (!out.started) {
        degrade(out, ErrorCode::TaskLost, "dispatch",
                "solve task was lost before it ran");
      }
    }
  }

  /// Extreme-case counts per block, summed over contexts.
  [[nodiscard]] std::vector<BlockCountRow> aggregateCounts(
      const std::vector<double>& values) const {
    std::vector<BlockCountRow> rows;
    for (int f = 0; f < analyzer_.module_->numFunctions(); ++f) {
      const auto& cfg = analyzer_.cfgs_[static_cast<std::size_t>(f)];
      for (int b = 0; b < cfg.numBlocks(); ++b) {
        std::int64_t total = 0;
        for (const auto& ctx : analyzer_.contexts_) {
          if (ctx.function != f) continue;
          total += static_cast<std::int64_t>(std::llround(
              values[static_cast<std::size_t>(analyzer_.xVar(ctx.id, b))]));
        }
        if (total != 0) rows.push_back({f, b, total});
      }
    }
    return rows;
  }

  const Analyzer& analyzer_;
  const SolveControl& control_;
  const Clock::time_point start_ = Clock::now();
  obs::Span span_;  ///< the whole call
  const System& sys_;
  ilp::IlpOptions ilpOptions_;
  int scheduledSets_ = 0;
  std::vector<SetOutcome> outcomes_;
  std::atomic<bool> sawDeadline_{false};
  std::once_flag structuralOnce_;
  std::array<std::optional<std::int64_t>, 2> structural_;
};

Estimate Analyzer::estimate(const SolveControl& control) const {
  EstimateRun run(*this, control);
  run.plan();
  run.dispatch();
  return run.merge();
}

}  // namespace cinderella::ipet
