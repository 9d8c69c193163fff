// The IPET analyzer — the paper's core contribution (Section III).
//
// Given a laid-out VISA module and a root function, the analyzer:
//   1. expands the call tree into *contexts* (one copy of a function's
//      variable space per call site, the paper's "separate set of x_i
//      variables for this instance of the call"),
//   2. derives structural constraints from flow conservation at every
//      basic block of every context, with d(entry of root) = 1,
//   3. attaches loop-bound constraints `lo*entries <= x_body <=
//      hi*entries` from `__loopbound` annotations or setLoopBound(),
//   4. conjoins user functionality constraints (disjunctions expand the
//      problem into a set of conjunctive constraint sets; null sets are
//      pruned by an LP feasibility probe),
//   5. solves one ILP per surviving set for the maximum (worst case,
//      block costs = all-miss) and one for the minimum (best case, block
//      costs = all-hit), and returns the enclosing interval.
//
// The optional first-iteration split (Section IV's proposed refinement)
// charges a loop block's cache misses only once per loop entry when the
// loop provably fits the instruction cache and contains no calls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cinderella/cfg/cfg.hpp"
#include "cinderella/cfg/loops.hpp"
#include "cinderella/codegen/codegen.hpp"
#include "cinderella/ilp/branch_and_bound.hpp"
#include "cinderella/ipet/constraint_lang.hpp"
#include "cinderella/ipet/digest.hpp"
#include "cinderella/march/cost_model.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/vm/module.hpp"

namespace cinderella::obs {
class Tracer;
}  // namespace cinderella::obs

namespace cinderella::ipet {

struct ParamDecl;  // formula.hpp

/// How the worst-case bound accounts for instruction-cache misses.
enum class CacheMode {
  /// Paper Section IV baseline: every line fetch of every block execution
  /// is assumed to miss.
  AllMiss,
  /// Paper Section IV refinement: blocks of a loop that provably fits
  /// the cache (including called functions) miss at most once per loop
  /// entry.
  FirstIterationSplit,
  /// The authors' follow-up work (announced as "currently working on the
  /// modeling of cache memory" in Section IV): a cache conflict graph
  /// per cache set with inter-l-block flow variables, bounding misses by
  /// conflicting-predecessor transitions.
  ConflictGraph,
};

[[nodiscard]] const char* cacheModeStr(CacheMode mode);

/// Inverse of cacheModeStr, also accepting the CLI short spellings
/// ("allmiss", "firstiter", "ccg").  Returns nullopt for anything else,
/// so callers can reject unknown mode strings with their own message.
[[nodiscard]] std::optional<CacheMode> parseCacheMode(std::string_view text);

struct AnalyzerOptions {
  CacheMode cacheMode = CacheMode::AllMiss;
  /// true (default): one copy of a function's variable space per call
  /// site (the paper's "separate set of x_i variables is used for this
  /// instance of the call"), enabling context-qualified constraints like
  /// x8[f1].  false: the paper's base formulation — one variable space
  /// per function whose entry count is the sum of all its call-edge
  /// counts (eq 12, "d2 = f1 + f2").  Cheaper, but context-qualified
  /// references are rejected and caller-specific facts cannot be stated.
  bool contextSensitive = true;
  /// Per cache set, the maximum number of conflict-graph nodes before
  /// the analysis falls back to all-miss for that set (keeps the ILP
  /// tractable).
  int conflictGraphNodeCap = 24;
  /// Skip the LP feasibility probe that prunes null constraint sets
  /// before the ILP stage (used by the pruning ablation bench).
  bool disableNullSetPruning = false;
  ilp::IlpOptions ilpOptions;
  march::MachineParams machine;
  /// Guards against disjunction blow-up and call-tree blow-up.
  int maxConstraintSets = 1 << 14;
  int maxContexts = 1 << 14;
};

/// Per-run solve policy for Analyzer::estimate().
///
/// AnalyzerOptions (constructor-time) describes the *model* — cache
/// treatment, context sensitivity, machine parameters.  SolveControl
/// describes how one estimate() call may spend resources: how many
/// threads solve the per-constraint-set ILPs, how long the call may run,
/// and how to abort it.  The result is bit-identical for every thread
/// count: per-set results are merged in set-index order, never in
/// completion order.
struct SolveControl {
  /// Worker threads for the per-set LP probes and ILP solves.
  /// 1 = solve in the calling thread; 0 = one per hardware thread.
  int threads = 1;
  /// Wall-clock budget for the whole estimate() call; zero = unlimited,
  /// negative = already expired.  When exceeded, completed sets are
  /// kept, remaining sets degrade to a sound structural bound, and the
  /// result carries Estimate::timedOut plus per-set verdicts — the call
  /// never throws for a deadline.
  std::chrono::milliseconds deadline{0};
  /// Overrides IlpOptions::maxNodes for every ILP when positive.
  int maxNodes = 0;
  /// Per-request memory ceiling (bytes) on any single constraint-set
  /// ILP: what its sparse tableau holds when built (each row's nonzeros
  /// and slack, the column index, per-column arrays), estimated before
  /// the solve starts; fill-in during pivoting is not charged.  0 =
  /// unlimited.  A set over the ceiling degrades to the sound structural
  /// bound with a MemoryCeiling issue and never allocates the tableau.
  /// The serving layer's --max-request-memory-mb quota threads through.
  std::size_t maxMemoryBytes = 0;
  /// Optional cooperative cancellation: set to true from any thread to
  /// make estimate() stop early and throw AnalysisError.
  const std::atomic<bool>* cancel = nullptr;
  /// Presolve/postsolve reduction engine (default on): every LP is
  /// shrunk by exact-integer fixpoint reductions — singleton-equality
  /// substitution, bound propagation, fixed-variable elimination, and
  /// redundant-row removal — before it reaches the simplex, with a
  /// postsolve stack mapping reduced-space solutions back to the
  /// original column space.  Bounds are bit-identical with this
  /// off (CLI --no-presolve); off exists for A/B measurement and
  /// bisection.
  bool presolve = true;
  /// Optional span tracer (see obs/trace.hpp).  When set, estimate()
  /// emits spans for the system build (when this call builds it), every
  /// per-set LP probe and worst/best ILP solve (which are also the
  /// thread-pool task lifetimes), and the merge.  Null (the default)
  /// costs nothing and emits nothing.  Tracing never affects the
  /// returned Estimate.
  obs::Tracer* tracer = nullptr;
};

struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  [[nodiscard]] bool encloses(const Interval& other) const {
    return lo <= other.lo && other.hi <= hi;
  }
  friend bool operator==(const Interval&, const Interval&) = default;
};

struct IlpSolveRecord;
struct SetSolveRecord;

struct SolveStats {
  /// Adds one solved ILP's counters: ilpSolves, lpCalls, nodesExpanded,
  /// the pivot, promotion, restart and presolve sums, and the
  /// first-relaxation flag.
  void addSolve(const IlpSolveRecord& solve);
  /// Adds one set's record: its null, covered or degraded tally, and
  /// addSolve() for each ILP it solved.  False when the set adds nothing
  /// to the interval itself: it was proved null, or a solved set covers
  /// it.  constraintSets and the ConflictGraph fields are the caller's.
  bool addSet(const SetSolveRecord& record);

  /// Constraint sets after DNF combination (paper Table I "Sets").
  int constraintSets = 0;
  /// Sets detected as null (infeasible) and pruned before the ILP.
  int prunedNullSets = 0;
  /// ILPs actually solved (2 per surviving set: max and min).
  int ilpSolves = 0;
  /// LP relaxations across all ILPs.
  int lpCalls = 0;
  /// Branch-and-bound nodes expanded across all ILPs (the quantity
  /// IlpOptions::maxNodes budgets; below lpCalls by the children whose
  /// dive was re-solved cold, see IlpStats::lpCalls).
  int nodesExpanded = 0;
  /// True when every root relaxation was already integral (paper §VI-A).
  bool allFirstRelaxationsIntegral = true;
  int totalPivots = 0;
  /// ConflictGraph mode: flow variables added and sets that exceeded the
  /// node cap (falling back to all-miss).
  int cacheFlowVars = 0;
  int cacheFallbackSets = 0;
  /// Degradation tallies: sets whose final verdict was Relaxed /
  /// Structural / Failed (exact and pruned sets are the remainder).
  int relaxedSets = 0;
  int structuralSets = 0;
  int failedSets = 0;
  /// Incumbent objectives redone in __int128 after 64-bit overflow,
  /// summed over all ILP solves (equals the sum over setRecords).
  int checkedPromotions = 0;
  /// LP solves that re-ran under Bland's rule after Dantzig hit the
  /// pivot limit, summed over all ILP solves.
  int blandRestarts = 0;
  /// Sets skipped because an identical set (after row canonicalization)
  /// was solved instead (SetSolveRecord::sharedWith names it).  Skipped
  /// sets whose representative proved null count under prunedNullSets,
  /// not here.
  int dedupedSets = 0;
  /// Sets skipped because a solved set's rows are a proper subset of
  /// theirs: the dominating set's feasible region contains the skipped
  /// set's region, so the merged interval already covers it.
  int dominatedSets = 0;
  /// Always 0: no structural seed is solved any more.  Stays only
  /// because perfbench/ adds it to its pivot count.
  int seedPivots = 0;
  /// Devex reference-framework pivots across the ILP solves (included
  /// in totalPivots; the remainder ran under Dantzig or Bland).
  int devexPivots = 0;
  /// Presolve reductions summed over the ILP solves' LP calls (equal to
  /// the sums over setRecords): constraint rows removed, variables
  /// fixed at an exact value, variables substituted out through
  /// singleton equalities, and fixpoint propagation rounds.
  int presolveRowsRemoved = 0;
  int presolveColsFixed = 0;
  int presolveSubstitutions = 0;
  int presolveRounds = 0;
};

struct BlockCountRow {
  int function = 0;
  int block = 0;
  std::int64_t count = 0;
};

/// How a constraint set's contribution to the final bound was obtained
/// — the degradation ladder, ordered from best to worst.  Every rung
/// except Failed yields a *sound* bound: the LP relaxation of a
/// maximization ILP is an upper bound on its optimum (and of a
/// minimization, a lower bound), and the base problem's relaxation
/// bounds every set because each set's feasible region is contained in
/// the base region.
enum class SetVerdict {
  /// Both ILPs finished with a proven integral optimum (or the probe
  /// proved the set null).
  Exact = 0,
  /// At least one side fell back to the set's own LP-relaxation bound.
  Relaxed = 1,
  /// At least one side fell back to the shared base-problem relaxation.
  Structural = 2,
  /// At least one side could not be bounded at all; the enclosing
  /// Estimate is no longer sound (see Estimate::sound).
  Failed = 3,
};

[[nodiscard]] const char* setVerdictStr(SetVerdict verdict);

/// One machine-readable fault record: what went wrong, where, and for
/// which constraint set (-1 when not tied to a single set).
struct SolveIssue {
  int setIndex = -1;
  ErrorCode code = ErrorCode::None;
  /// Solve phase: "set", "probe", "ilp-worst", "ilp-best", "dispatch".
  std::string phase;
  std::string detail;
};

/// Outcome of one ILP (the worst-case max or the best-case min) of one
/// constraint set.  All fields except wallMicros are deterministic:
/// identical for every SolveControl::threads value.
struct IlpSolveRecord {
  /// False when the solve never ran (the set was pruned as null).
  bool solved = false;
  /// True when the ILP reached an optimal integral point.
  bool feasible = false;
  /// Rounded objective (cycles); valid when feasible.
  std::int64_t objective = 0;
  int nodes = 0;    ///< Branch-and-bound nodes expanded.
  int lpCalls = 0;  ///< LP relaxations solved.
  int pivots = 0;   ///< Simplex pivots across those relaxations.
  bool firstRelaxationIntegral = false;
  /// Objective recomputations promoted to __int128 in this solve.
  int checkedPromotions = 0;
  /// LP calls that re-ran under Bland's rule in this solve.
  int blandRestarts = 0;
  /// Devex pivots in this solve (included in `pivots`).
  int devexPivots = 0;
  /// Presolve reductions summed over this solve's LP calls.
  int presolveRowsRemoved = 0;
  int presolveColsFixed = 0;
  int presolveSubstitutions = 0;
  int presolveRounds = 0;
  /// This side finished without an exact optimum and contributed
  /// `fallbackBound` (a sound relaxation/structural bound) instead.
  bool degraded = false;
  std::int64_t fallbackBound = 0;
  /// Wall-clock µs of this solve (not deterministic).
  std::int64_t wallMicros = 0;
};

/// The record of one finished ILP solve: `solved`, `feasible`, the
/// objective and every counter.  wallMicros and the degradation fields
/// are left for the caller.
[[nodiscard]] IlpSolveRecord ilpSolveRecord(const ilp::IlpSolution& solution);

// The budget checks every solve path shares: Analyzer::estimate and the
// LP-input path of AnalysisService.

/// True when `control`'s cancel flag is set.
[[nodiscard]] bool cancelRequested(const SolveControl& control);

/// True once `control`'s deadline, counted from `start`, has run out.  A
/// DeadlineClock fault (support/fault_injector.hpp) expires it too, so
/// fault drills reach the partial-result path without real waiting.
[[nodiscard]] bool deadlineExpired(const SolveControl& control,
                                   std::chrono::steady_clock::time_point start);

/// Why an ILP stopped without an optimum (status Limit or Interrupted):
/// Cancelled or DeadlineExpired when interrupted, NodeBudgetExhausted
/// once it expanded `maxNodes` nodes, else PivotLimit.
[[nodiscard]] ErrorCode stopCode(const SolveControl& control,
                                 const ilp::IlpSolution& solution,
                                 int maxNodes);

/// The MemoryCeiling issue detail when the tableau over `p`'s rows
/// (lp::tableauBytes) exceeds `control.maxMemoryBytes`, else nullopt.
[[nodiscard]] std::optional<std::string> overMemoryCeiling(
    const SolveControl& control, const lp::Problem& p);

/// Per-constraint-set solve record (paper Table I granularity): how the
/// LP feasibility probe and the two ILPs of set `setIndex` went.
struct SetSolveRecord {
  int setIndex = 0;
  /// Constraints in this conjunctive set beyond the structural base.
  int userConstraints = 0;
  /// >= 0 when this set was never solved because set `sharedWith`
  /// covers it: an identical set after row canonicalization
  /// (dominated == false) or a solved set whose rows are a proper
  /// subset of this one's (dominated == true, so this set's region is
  /// contained in the solved one's and the merged interval already
  /// covers it).  `pruned` is set when the covering set proved null.
  int sharedWith = -1;
  bool dominated = false;
  /// True when the LP probe proved the set null; worst/best never ran.
  bool pruned = false;
  int probePivots = 0;            ///< Pivots of the feasibility probe.
  std::int64_t probeMicros = 0;   ///< Probe wall µs (not deterministic).
  /// Where this set landed on the degradation ladder.
  SetVerdict verdict = SetVerdict::Exact;
  /// Primary cause when verdict != Exact (or when a non-degrading fault,
  /// e.g. a probe failure, was absorbed); None on the clean path.
  ErrorCode issue = ErrorCode::None;
  /// Pivots spent on degradation-fallback LP solves.  Deliberately NOT
  /// part of SolveStats::totalPivots, which sums only the ILP solves.
  int fallbackPivots = 0;
  IlpSolveRecord worst;
  IlpSolveRecord best;
  /// Wall-clock µs for the whole set task (not deterministic).
  std::int64_t wallMicros = 0;
};

struct Estimate {
  /// Estimated bound [t_min, t_max] in cycles.
  Interval bound;
  SolveStats stats;
  /// One record per constraint set, in set-index order.  The aggregate
  /// counters (ilpSolves, lpCalls, nodesExpanded, totalPivots,
  /// prunedNullSets) of `stats` are exactly the sums over these records.
  std::vector<SetSolveRecord> setRecords;
  /// Extreme-case block execution counts, aggregated over contexts.
  /// Empty when the corresponding side of `bound` came from a degraded
  /// (relaxed/structural) solve, which has no integral witness.
  std::vector<BlockCountRow> worstCounts;
  std::vector<BlockCountRow> bestCounts;
  /// True when the deadline (or an injected clock fault) expired before
  /// every set was solved exactly; the bound is still sound unless a
  /// set Failed.
  bool timedOut = false;
  /// Every fault absorbed during the solve, in set-index order
  /// (dispatch-level issues carry setIndex of the affected set).
  std::vector<SolveIssue> issues;
  /// True when every non-exact set still contributed a sound bound —
  /// i.e. no set Failed.  A sound degraded estimate still brackets the
  /// true [BCET, WCET] interval; an unsound one guarantees nothing.
  [[nodiscard]] bool sound() const { return stats.failedSets == 0; }
};

/// One analysis context: a function instance reached by a specific call
/// string from the root.
struct Context {
  int id = 0;
  int function = 0;
  int parent = -1;          ///< Context id of the caller (-1 for root).
  int parentEdgeLocal = -1; ///< Call-edge id within the parent's CFG.
  std::string key;          ///< "" for root, else "f3" / "f3.f7" ...
};

/// Structural flow constraint of one block (for tests and dumps):
/// x[block] = sum(in d) = sum(out d).
struct FlowConstraint {
  int block = 0;
  std::vector<int> inEdges;
  std::vector<int> outEdges;
};

class Analyzer {
 public:
  /// `compiled` must outlive the analyzer.
  Analyzer(const codegen::CompileResult& compiled,
           std::string_view rootFunction, AnalyzerOptions options = {});

  /// Adds a functionality constraint (see constraint_lang.hpp).  The
  /// default scope for unqualified x/d references is `defaultScope`, or
  /// the root function when empty.
  void addConstraint(std::string_view text, std::string_view defaultScope = {});

  /// Programmatic alternative to `__loopbound` for the loop whose
  /// statement starts at `line` of `function`.
  void setLoopBound(std::string_view function, int line, std::int64_t lo,
                    std::int64_t hi);

  /// Runs the full analysis.  Throws AnalysisError for unbounded loops,
  /// unsatisfiable constraints, or recursion.  The overload taking a
  /// SolveControl dispatches the per-constraint-set solves across
  /// `control.threads` workers; results are identical for every thread
  /// count.  The no-arg form is a shim for `estimate(SolveControl{})`.
  [[nodiscard]] Estimate estimate() const { return estimate(SolveControl{}); }
  [[nodiscard]] Estimate estimate(const SolveControl& control) const;

  // --- Introspection (tests, examples, annotated dumps). ---
  [[nodiscard]] const vm::Module& module() const { return *module_; }
  [[nodiscard]] const cfg::ControlFlowGraph& cfgOf(int function) const {
    return cfgs_[static_cast<std::size_t>(function)];
  }
  [[nodiscard]] int rootFunction() const { return root_; }
  [[nodiscard]] const std::vector<Context>& contexts() const {
    return contexts_;
  }
  /// Flow constraints of one function's CFG (paper Figs 2-4 content).
  [[nodiscard]] std::vector<FlowConstraint> flowConstraints(
      int function) const;
  /// Static label of a call edge (paper's f-numbers), or 0 if not a call
  /// edge.
  [[nodiscard]] int fLabel(int function, int edgeId) const;
  /// Static best/worst cost of a block (the paper's c_i interval).
  [[nodiscard]] march::BlockCost blockCost(int function, int block) const;
  [[nodiscard]] const march::CostModel& costModel() const { return model_; }
  /// Human-readable structural constraint listing of one function.
  [[nodiscard]] std::string structuralConstraintsStr(int function) const;

  /// The worst-case ILPs in CPLEX LP format, one per constraint set —
  /// ready for lp_solve/CBC/CPLEX, the way the paper handed its systems
  /// to an off-the-shelf ILP package.
  [[nodiscard]] std::string exportWorstCaseIlp() const;

  /// Content-addressed keys of this analysis (see digest.hpp).
  /// `structural` covers everything common to all constraint sets — the
  /// base problem's canonical rows (structural flow, loop bounds,
  /// cache-mode variables), the variable count, and both objective
  /// coefficient vectors.  `full` extends it with the canonical rows of every expanded
  /// constraint set (order-normalized), and therefore keys the final
  /// bound: equal full digests => equal ILP systems => equal bounds.
  struct SystemDigests {
    Digest full;
    Digest structural;
  };
  /// When this call builds the analyzer's system, `tracer` receives
  /// the build spans.
  [[nodiscard]] SystemDigests systemDigests(
      obs::Tracer* tracer = nullptr) const;

  // --- Parametric analysis (formula.hpp, parametric.hpp). ---
  /// Binds the symbolic parameter `@name` to a concrete value for
  /// subsequent estimate() / systemDigests() calls: every row mentioning
  /// it folds `coeff * value` into its constant side, exactly as if the
  /// constraint had been written with the number.  Rebinding overwrites.
  void bindParam(std::string_view name, std::int64_t value);
  void clearParamBindings();
  /// Names of every `@name` parameter referenced by the constraints
  /// added so far, sorted and deduplicated.
  [[nodiscard]] std::vector<std::string> referencedParams() const;
  /// Content-addressed key of the *parametric* system: the structural
  /// digest extended with the symbolic (unbound) canonical encoding of
  /// every user-constraint row and the declared parameter ranges.  Keys
  /// a cached WcetFormula — equal digests mean the piecewise bound is
  /// reusable verbatim.  Ignores current bindings.  `tracer` as for
  /// systemDigests.
  [[nodiscard]] Digest parametricDigest(const std::vector<ParamDecl>& params,
                                        obs::Tracer* tracer = nullptr) const;

 private:
  struct LoopBoundSite {
    int function = 0;
    int header = -1;  ///< Header block id.
    int body = -1;    ///< First body block id (the paper's x2 in eq 14/15).
    std::int64_t lo = -1;
    std::int64_t hi = -1;
    int line = 0;
  };

  /// One estimate() call: its shared state and stages (estimate.cpp).
  struct EstimateRun;

  void buildContexts();
  void assignFLabels();
  void resolveLoopBounds();

  /// What the digests, the solve and the LP export share.
  struct System {
    /// Base LP problem: variables + structural + loop-bound constraints
    /// + cache-mode variables.  Objective not set.
    lp::Problem problem;
    /// Objective coefficient per variable for the worst (max) case...
    std::vector<double> worstCoeff;
    /// ...and the best (min) case; and both as ILP objectives.
    std::vector<double> bestCoeff;
    lp::LinearExpr worstObjective;
    lp::LinearExpr bestObjective;
    /// ConflictGraph bookkeeping for SolveStats.
    int cacheFlowVars = 0;
    int cacheFallbackSets = 0;
    /// DNF cross-product of all user constraints (paper III-D).
    Dnf sets;
    /// Digest stream after the structural sections (V, B, W, C):
    /// finish() is the structural digest, and a copy extended with the
    /// sets is the full or parametric digest.  Hashed by
    /// structuralDigest() on the first digest request, so a bare
    /// estimate() never pays for it.
    DigestBuilder structural;
  };
  /// Fills the base problem, cost vectors and cache counters of `out`.
  void buildBaseProblem(System* out) const;

  /// The system of the current constraints and loop bounds, built under
  /// a lock on first use; `tracer` receives the build spans.
  [[nodiscard]] const System& system(obs::Tracer* tracer) const;
  /// system() with systemMutex_ already held.
  [[nodiscard]] System& systemLocked(obs::Tracer* tracer) const;
  /// system().structural, hashed under the same lock on first use.
  [[nodiscard]] const DigestBuilder& structuralDigest(
      obs::Tracer* tracer) const;
  /// Drops the system (its inputs changed).
  void resetSystem();

  /// Adds the Section-IV first-iteration split variables/constraints to
  /// `base` (see buildBaseProblem for the scheme).
  void applyFirstIterationSplit(System* base) const;

  /// Replaces the all-miss worst costs with the cache-conflict-graph
  /// formulation (see cacheMode == ConflictGraph).
  void applyConflictGraphCache(System* base) const;

  /// base problem + one conjunctive constraint set, resolved to LP rows.
  [[nodiscard]] lp::Problem materializeSet(const System& base,
                                           const ConjunctiveSet& set) const;

  /// One symbolic user constraint resolved to an LP row.
  [[nodiscard]] lp::Constraint resolveSymConstraint(
      const SymConstraint& sc) const;

  /// Canonical key of one symbolic row resolved under the current
  /// bindings (see canonicalRowKey).
  [[nodiscard]] std::string concreteRowKey(const SymConstraint& sc) const;
  /// A set's concreteRowKey()s, sorted with duplicates removed: equal
  /// keys => equal regions, a proper subset => a superset region.
  [[nodiscard]] std::vector<std::string> concreteSetKeys(
      const ConjunctiveSet& set) const;

  /// Binding-invariant canonical key of one symbolic row: the
  /// parameter-free part canonicalized like a concrete row, plus the rhs
  /// gradient per parameter.
  [[nodiscard]] std::string symbolicRowKey(const SymConstraint& sc) const;

  /// Bound value of `@name`; throws AnalysisError when unbound.
  [[nodiscard]] std::int64_t paramValue(const std::string& name) const;

  [[nodiscard]] int xVar(int context, int block) const;
  [[nodiscard]] int dVar(int context, int edge) const;

  /// Resolves a symbolic reference to a sum of LP variables.
  [[nodiscard]] lp::LinearExpr resolve(const VarRef& ref) const;

  const vm::Module* module_;
  const std::vector<codegen::LoopAnnotation>* loopAnnotations_;
  AnalyzerOptions options_;
  march::CostModel model_;
  int root_ = -1;

  std::vector<cfg::ControlFlowGraph> cfgs_;
  std::vector<std::vector<cfg::NaturalLoop>> loops_;  // per function
  std::vector<Context> contexts_;
  /// Per context: the (context, local call-edge id) pairs whose d
  /// variables feed its entry edge.  Empty for the root.
  std::vector<std::vector<std::pair<int, int>>> entryFeeds_;
  std::vector<int> xBase_;  // per context
  std::vector<int> dBase_;  // per context
  int numFlowVars_ = 0;
  /// fLabel_[fn][edge] = static f label (0 when not a call edge).
  std::vector<std::vector<int>> fLabel_;
  /// label -> (function, edgeId).
  std::map<int, std::pair<int, int>> fLabelSite_;

  std::vector<LoopBoundSite> loopBounds_;
  /// API-provided bounds keyed by (function name, line).
  std::map<std::pair<std::string, int>, std::pair<std::int64_t, std::int64_t>>
      apiLoopBounds_;

  std::vector<Dnf> userConstraints_;
  /// Current `@name` parameter bindings (see bindParam).  They only
  /// resolve user rows, so binding never resets the system.
  std::map<std::string, std::int64_t, std::less<>> paramBindings_;

  /// The lazily built system (see system()) and the lock guarding its
  /// build, held on the heap so the analyzer stays movable.
  std::unique_ptr<std::mutex> systemMutex_ = std::make_unique<std::mutex>();
  mutable std::unique_ptr<System> system_;
  /// Whether system_->structural has been hashed (structuralDigest()).
  mutable bool structuralHashed_ = false;
};

}  // namespace cinderella::ipet
