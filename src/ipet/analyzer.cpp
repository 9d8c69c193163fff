#include "cinderella/ipet/analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "cinderella/cfg/callgraph.hpp"
#include "cinderella/ipet/formula.hpp"
#include "cinderella/lp/lp_format.hpp"
#include "cinderella/lp/simplex.hpp"
#include "cinderella/cfg/dominators.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"
#include "cinderella/support/thread_pool.hpp"

namespace cinderella::ipet {

Analyzer::Analyzer(const codegen::CompileResult& compiled,
                   std::string_view rootFunction, AnalyzerOptions options)
    : module_(&compiled.module),
      loopAnnotations_(&compiled.loops),
      options_(options),
      model_(options.machine) {
  CIN_REQUIRE(module_->isLaidOut());
  const auto rootIndex = module_->findFunction(rootFunction);
  if (!rootIndex) {
    throw AnalysisError("unknown root function '" + std::string(rootFunction) +
                        "'");
  }
  root_ = *rootIndex;

  const cfg::CallGraph callGraph(*module_);
  if (callGraph.hasCycle()) {
    throw AnalysisError("program is recursive; IPET requires a call DAG");
  }

  cfgs_.reserve(static_cast<std::size_t>(module_->numFunctions()));
  loops_.reserve(static_cast<std::size_t>(module_->numFunctions()));
  for (int f = 0; f < module_->numFunctions(); ++f) {
    cfgs_.push_back(cfg::buildCfg(*module_, f));
    const cfg::DominatorTree dom(cfgs_.back());
    loops_.push_back(cfg::findLoops(cfgs_.back(), dom));
  }

  assignFLabels();
  buildContexts();
  resolveLoopBounds();
}

void Analyzer::assignFLabels() {
  fLabel_.resize(static_cast<std::size_t>(module_->numFunctions()));
  int next = 1;
  for (int f = 0; f < module_->numFunctions(); ++f) {
    const auto& cfg = cfgs_[static_cast<std::size_t>(f)];
    fLabel_[static_cast<std::size_t>(f)].assign(
        static_cast<std::size_t>(cfg.numEdges()), 0);
    for (const auto& e : cfg.edges()) {
      if (e.isCall()) {
        fLabel_[static_cast<std::size_t>(f)][static_cast<std::size_t>(e.id)] =
            next;
        fLabelSite_[next] = {f, e.id};
        ++next;
      }
    }
  }
}

void Analyzer::buildContexts() {
  Context rootCtx;
  rootCtx.id = 0;
  rootCtx.function = root_;
  contexts_.push_back(rootCtx);

  if (options_.contextSensitive) {
    // Breadth-first expansion of the call tree: one context per call
    // string (the paper's per-call-instance variable spaces).
    for (std::size_t i = 0; i < contexts_.size(); ++i) {
      const Context ctx = contexts_[i];  // copy: vector may reallocate
      const auto& cfg = cfgs_[static_cast<std::size_t>(ctx.function)];
      for (const auto& e : cfg.edges()) {
        if (!e.isCall()) continue;
        if (static_cast<int>(contexts_.size()) >= options_.maxContexts) {
          throw AnalysisError("call-tree context limit exceeded");
        }
        Context child;
        child.id = static_cast<int>(contexts_.size());
        child.function = e.callee;
        child.parent = ctx.id;
        child.parentEdgeLocal = e.id;
        const int label =
            fLabel_[static_cast<std::size_t>(ctx.function)]
                   [static_cast<std::size_t>(e.id)];
        child.key = ctx.key.empty() ? "f" + std::to_string(label)
                                    : ctx.key + ".f" + std::to_string(label);
        contexts_.push_back(std::move(child));
      }
    }
    entryFeeds_.resize(contexts_.size());
    for (const auto& ctx : contexts_) {
      if (ctx.parent >= 0) {
        entryFeeds_[static_cast<std::size_t>(ctx.id)].push_back(
            {ctx.parent, ctx.parentEdgeLocal});
      }
    }
  } else {
    // The paper's base formulation (eq 12): one variable space per
    // reachable function; its entry count is the sum of every call
    // edge targeting it, e.g. d2 = f1 + f2 for store() in Fig. 4.
    const cfg::CallGraph callGraph(*module_);
    std::map<int, int> ctxOfFunction{{root_, 0}};
    for (const int fn : callGraph.bottomUpOrder(root_)) {
      if (fn == root_) continue;
      Context ctx;
      ctx.id = static_cast<int>(contexts_.size());
      ctx.function = fn;
      ctxOfFunction[fn] = ctx.id;
      contexts_.push_back(std::move(ctx));
    }
    entryFeeds_.resize(contexts_.size());
    for (const auto& caller : contexts_) {
      const auto& cfg = cfgs_[static_cast<std::size_t>(caller.function)];
      for (const auto& e : cfg.edges()) {
        if (!e.isCall()) continue;
        const int calleeCtx = ctxOfFunction.at(e.callee);
        entryFeeds_[static_cast<std::size_t>(calleeCtx)].push_back(
            {caller.id, e.id});
      }
    }
  }

  // Assign LP variable ranges: x vars then d vars per context.
  xBase_.resize(contexts_.size());
  dBase_.resize(contexts_.size());
  int next = 0;
  for (const auto& ctx : contexts_) {
    const auto& cfg = cfgs_[static_cast<std::size_t>(ctx.function)];
    xBase_[static_cast<std::size_t>(ctx.id)] = next;
    next += cfg.numBlocks();
    dBase_[static_cast<std::size_t>(ctx.id)] = next;
    next += cfg.numEdges();
  }
  numFlowVars_ = next;
}

int Analyzer::xVar(int context, int block) const {
  return xBase_[static_cast<std::size_t>(context)] + block;
}
int Analyzer::dVar(int context, int edge) const {
  return dBase_[static_cast<std::size_t>(context)] + edge;
}

void Analyzer::resolveLoopBounds() {
  for (const auto& ann : *loopAnnotations_) {
    const auto& cfg = cfgs_[static_cast<std::size_t>(ann.function)];
    LoopBoundSite site;
    site.function = ann.function;
    site.header = cfg.blockOfInstr(ann.headerInstr);
    site.body = cfg.blockOfInstr(ann.bodyInstr);
    site.lo = ann.lo;
    site.hi = ann.hi;
    site.line = ann.line;
    loopBounds_.push_back(site);
  }
}

void Analyzer::setLoopBound(std::string_view function, int line,
                            std::int64_t lo, std::int64_t hi) {
  if (lo < 0 || hi < lo) {
    throw AnalysisError("invalid loop bounds: require 0 <= lo <= hi");
  }
  apiLoopBounds_[{std::string(function), line}] = {lo, hi};
  resetSystem();
}

void Analyzer::addConstraint(std::string_view text,
                             std::string_view defaultScope) {
  const std::string scope = defaultScope.empty()
                                ? module_->function(root_).name
                                : std::string(defaultScope);
  userConstraints_.push_back(parseConstraint(text, scope));
  resetSystem();
}

void Analyzer::resetSystem() {
  system_.reset();
  structuralHashed_ = false;
}

lp::LinearExpr Analyzer::resolve(const VarRef& ref) const {
  lp::LinearExpr expr;

  if (!ref.context.empty() && !options_.contextSensitive) {
    throw AnalysisError(
        "context-qualified reference " + ref.str() +
        " requires context-sensitive analysis (AnalyzerOptions)");
  }

  std::string wantedKeyForLine;
  for (std::size_t i = 0; i < ref.context.size(); ++i) {
    if (i) wantedKeyForLine += ".";
    wantedKeyForLine += "f" + std::to_string(ref.context[i]);
  }

  if (ref.kind == VarKind::LineBlock) {
    const auto fn = module_->findFunction(ref.function);
    if (!fn) {
      throw AnalysisError("constraint references unknown function '" +
                          ref.function + "'");
    }
    const auto& cfg = cfgs_[static_cast<std::size_t>(*fn)];
    std::vector<int> blocks;
    for (const auto& b : cfg.blocks()) {
      if (b.firstLine == ref.number) blocks.push_back(b.id);
    }
    if (blocks.empty()) {
      throw AnalysisError("no basic block of '" + ref.function +
                          "' starts on line " + std::to_string(ref.number));
    }
    bool any = false;
    for (const auto& ctx : contexts_) {
      if (ctx.function != *fn) continue;
      if (!ref.context.empty() && ctx.key != wantedKeyForLine) continue;
      for (const int b : blocks) expr.add(xVar(ctx.id, b), 1.0);
      any = true;
    }
    if (!any) {
      throw AnalysisError("constraint reference " + ref.str() +
                          " matches no analysis context");
    }
    return expr;
  }

  // Call-edge references resolve to d variables of the labelled edge.
  int function = -1;
  int localId = -1;
  bool wantEdge = false;
  if (ref.kind == VarKind::CallEdge) {
    const auto it = fLabelSite_.find(ref.number);
    if (it == fLabelSite_.end()) {
      throw AnalysisError("unknown call-edge label f" +
                          std::to_string(ref.number));
    }
    function = it->second.first;
    localId = it->second.second;
    wantEdge = true;
  } else {
    const auto fn = module_->findFunction(ref.function);
    if (!fn) {
      throw AnalysisError("constraint references unknown function '" +
                          ref.function + "'");
    }
    function = *fn;
    localId = ref.number;
    wantEdge = (ref.kind == VarKind::Edge);
    const auto& cfg = cfgs_[static_cast<std::size_t>(function)];
    const int limit = wantEdge ? cfg.numEdges() : cfg.numBlocks();
    if (localId < 0 || localId >= limit) {
      throw AnalysisError("constraint references " + ref.str() +
                          " but function '" + ref.function + "' has only " +
                          std::to_string(limit) +
                          (wantEdge ? " edges" : " blocks"));
    }
  }

  std::string wantedKey;
  for (std::size_t i = 0; i < ref.context.size(); ++i) {
    if (i) wantedKey += ".";
    wantedKey += "f" + std::to_string(ref.context[i]);
  }

  bool any = false;
  for (const auto& ctx : contexts_) {
    if (ctx.function != function) continue;
    if (!ref.context.empty() && ctx.key != wantedKey) continue;
    expr.add(wantEdge ? dVar(ctx.id, localId) : xVar(ctx.id, localId), 1.0);
    any = true;
  }
  if (!any) {
    throw AnalysisError("constraint reference " + ref.str() +
                        " matches no analysis context (function unreachable "
                        "from the root, or wrong context suffix)");
  }
  return expr;
}

std::vector<FlowConstraint> Analyzer::flowConstraints(int function) const {
  const auto& cfg = cfgs_[static_cast<std::size_t>(function)];
  std::vector<FlowConstraint> out;
  out.reserve(static_cast<std::size_t>(cfg.numBlocks()));
  for (const auto& b : cfg.blocks()) {
    FlowConstraint fc;
    fc.block = b.id;
    fc.inEdges = b.predEdges;
    fc.outEdges = b.succEdges;
    out.push_back(std::move(fc));
  }
  return out;
}

int Analyzer::fLabel(int function, int edgeId) const {
  return fLabel_[static_cast<std::size_t>(function)]
                [static_cast<std::size_t>(edgeId)];
}

march::BlockCost Analyzer::blockCost(int function, int block) const {
  const auto& cfg = cfgs_[static_cast<std::size_t>(function)];
  const auto& b = cfg.block(block);
  return model_.blockCost(module_->function(function), b.firstInstr,
                          b.lastInstr);
}

std::string Analyzer::structuralConstraintsStr(int function) const {
  const auto& fn = module_->function(function);
  std::ostringstream out;
  out << "structural constraints of " << fn.name << ":\n";
  auto edgeList = [&](const std::vector<int>& edges) {
    std::string s;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i) s += " + ";
      const int label = fLabel(function, edges[i]);
      s += (label > 0) ? "f" + std::to_string(label)
                       : "d" + std::to_string(edges[i]);
    }
    return s.empty() ? std::string("0") : s;
  };
  for (const auto& fc : flowConstraints(function)) {
    out << "  x" << fc.block << " = " << edgeList(fc.inEdges) << " = "
        << edgeList(fc.outEdges) << "\n";
  }
  return out.str();
}

void Analyzer::buildBaseProblem(System* out) const {
  System& base = *out;
  lp::Problem& p = base.problem;

  // Flow variables, named for diagnostics.
  for (const auto& ctx : contexts_) {
    const auto& cfg = cfgs_[static_cast<std::size_t>(ctx.function)];
    const std::string& fnName =
        module_->function(ctx.function).name;
    const std::string suffix = ctx.key.empty() ? "" : "[" + ctx.key + "]";
    for (int b = 0; b < cfg.numBlocks(); ++b) {
      p.addVar(fnName + ".x" + std::to_string(b) + suffix);
    }
    for (int e = 0; e < cfg.numEdges(); ++e) {
      p.addVar(fnName + ".d" + std::to_string(e) + suffix);
    }
  }
  CIN_REQUIRE(p.numVars() == numFlowVars_);

  base.worstCoeff.assign(static_cast<std::size_t>(numFlowVars_), 0.0);
  base.bestCoeff.assign(static_cast<std::size_t>(numFlowVars_), 0.0);

  // Structural constraints + cost coefficients.
  for (const auto& ctx : contexts_) {
    const auto& cfg = cfgs_[static_cast<std::size_t>(ctx.function)];
    const vm::Function& fn = module_->function(ctx.function);
    for (const auto& b : cfg.blocks()) {
      // x = sum(in d)
      lp::LinearExpr in;
      in.add(xVar(ctx.id, b.id), 1.0);
      for (const int e : b.predEdges) in.add(dVar(ctx.id, e), -1.0);
      p.addConstraint(std::move(in), lp::Relation::Equal, 0.0);
      // x = sum(out d)
      lp::LinearExpr out;
      out.add(xVar(ctx.id, b.id), 1.0);
      for (const int e : b.succEdges) out.add(dVar(ctx.id, e), -1.0);
      p.addConstraint(std::move(out), lp::Relation::Equal, 0.0);

      const march::BlockCost cost =
          model_.blockCost(fn, b.firstInstr, b.lastInstr);
      base.worstCoeff[static_cast<std::size_t>(xVar(ctx.id, b.id))] =
          static_cast<double>(cost.worst);
      base.bestCoeff[static_cast<std::size_t>(xVar(ctx.id, b.id))] =
          static_cast<double>(cost.best);
    }

    // Entry-count constraint: the function instance executes once per
    // call-edge crossing that feeds it (paper eq 12), plus once for the
    // root invocation itself (paper eq 13).
    lp::LinearExpr entry;
    entry.add(dVar(ctx.id, cfg.entryEdge()), 1.0);
    for (const auto& [feedCtx, feedEdge] :
         entryFeeds_[static_cast<std::size_t>(ctx.id)]) {
      entry.add(dVar(feedCtx, feedEdge), -1.0);
    }
    p.addConstraint(std::move(entry), lp::Relation::Equal,
                    ctx.id == 0 ? 1.0 : 0.0);
  }

  // Loop-bound constraints (paper eqs 14/15, generalised).
  for (const auto& site : loopBounds_) {
    std::int64_t lo = site.lo;
    std::int64_t hi = site.hi;
    const auto api = apiLoopBounds_.find(
        {module_->function(site.function).name, site.line});
    if (api != apiLoopBounds_.end()) {
      lo = api->second.first;
      hi = api->second.second;
    }
    if (lo < 0 || hi < 0) {
      throw AnalysisError(
          "loop at " + module_->function(site.function).name + ":" +
          std::to_string(site.line) +
          " has no bound; annotate with __loopbound(lo,hi) or call "
          "setLoopBound()");
    }

    // Locate the natural loop headed at the site's header block.
    const auto& fnLoops = loops_[static_cast<std::size_t>(site.function)];
    const cfg::NaturalLoop* loop = nullptr;
    for (const auto& l : fnLoops) {
      if (l.header == site.header) {
        loop = &l;
        break;
      }
    }
    if (loop == nullptr) {
      // Loop body provably never executes (e.g. constant-false guard
      // removed the back edge); nothing to bound.
      continue;
    }

    for (const auto& ctx : contexts_) {
      if (ctx.function != site.function) continue;
      lp::LinearExpr entries;
      for (const int e : loop->entryEdges) entries.add(dVar(ctx.id, e), 1.0);
      // x_body - hi * entries <= 0
      lp::LinearExpr upper;
      upper.add(xVar(ctx.id, site.body), 1.0);
      for (const auto& t : entries.terms()) {
        upper.add(t.var, -static_cast<double>(hi) * t.coeff);
      }
      p.addConstraint(std::move(upper), lp::Relation::LessEq, 0.0);
      // x_body - lo * entries >= 0
      lp::LinearExpr lower;
      lower.add(xVar(ctx.id, site.body), 1.0);
      for (const auto& t : entries.terms()) {
        lower.add(t.var, -static_cast<double>(lo) * t.coeff);
      }
      p.addConstraint(std::move(lower), lp::Relation::GreaterEq, 0.0);
    }
  }

  // Optional Section-IV refinement: split a loop block's first-iteration
  // cost from its steady-state cost.  For each eligible loop L and block
  // b executed only inside L, introduce xf with xf <= x_b and
  // xf <= entries(L); the worst objective becomes
  //   allHit(b)*x_b + (worst(b)-allHit(b))*xf,
  // which a maximising ILP drives to xf = min(x_b, entries) — misses
  // charged at most once per loop entry.
  //
  // A loop is eligible when the code it executes between two visits of
  // any of its lines cannot evict that line: all lines of the loop plus
  // all (transitively) called functions map to distinct cache sets.
  // Calls are handled interprocedurally: the callee contexts reached
  // from call sites inside the loop execute only within the loop, so
  // their blocks participate in the split with the same entry count.
  if (options_.cacheMode == CacheMode::FirstIterationSplit) {
    applyFirstIterationSplit(&base);
  } else if (options_.cacheMode == CacheMode::ConflictGraph) {
    applyConflictGraphCache(&base);
  }
}

const char* cacheModeStr(CacheMode mode) {
  switch (mode) {
    case CacheMode::AllMiss:
      return "all-miss";
    case CacheMode::FirstIterationSplit:
      return "first-iteration-split";
    case CacheMode::ConflictGraph:
      return "conflict-graph";
  }
  return "?";
}

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

std::optional<CacheMode> parseCacheMode(std::string_view text) {
  if (text == "allmiss" || text == "all-miss") return CacheMode::AllMiss;
  if (text == "firstiter" || text == "first-iteration-split") {
    return CacheMode::FirstIterationSplit;
  }
  if (text == "ccg" || text == "conflict-graph") {
    return CacheMode::ConflictGraph;
  }
  return std::nullopt;
}

void Analyzer::applyFirstIterationSplit(System* base) const {
  lp::Problem& p = base->problem;
  const int numSets = options_.machine.numSets();
  const int lineBytes = options_.machine.cacheLineBytes;

  /// (context, block) pairs already owned by some eligible loop.
  std::set<std::pair<int, int>> assigned;

  /// Finds the child context reached through a call edge of `ctx`.
  auto childContext = [&](int ctx, int edgeLocal) -> const Context* {
    for (const auto& child : contexts_) {
      if (child.parent == ctx && child.parentEdgeLocal == edgeLocal) {
        return &child;
      }
    }
    return nullptr;
  };

  /// Collects every (context, block) executed by `ctx` (whole function),
  /// recursing into its callee contexts.  Used for call sites inside an
  /// eligible loop.
  auto collectContext = [&](auto&& self, const Context& ctx,
                            std::vector<std::pair<int, int>>* units) -> void {
    const auto& cfg = cfgs_[static_cast<std::size_t>(ctx.function)];
    for (const auto& b : cfg.blocks()) units->push_back({ctx.id, b.id});
    for (const auto& e : cfg.edges()) {
      if (!e.isCall()) continue;
      const Context* child = childContext(ctx.id, e.id);
      CIN_REQUIRE(child != nullptr);
      self(self, *child, units);
    }
  };

  for (const auto& ctx : contexts_) {
    const auto& cfg = cfgs_[static_cast<std::size_t>(ctx.function)];
    const auto& fnLoops = loops_[static_cast<std::size_t>(ctx.function)];

    // Innermost-first: an inner loop's split is established before the
    // enclosing loop claims the remaining blocks.
    std::vector<const cfg::NaturalLoop*> ordered;
    for (const auto& l : fnLoops) ordered.push_back(&l);
    std::sort(ordered.begin(), ordered.end(),
              [](const cfg::NaturalLoop* a, const cfg::NaturalLoop* b) {
                return a->blocks.size() < b->blocks.size();
              });

    for (const cfg::NaturalLoop* loop : ordered) {
      // The split units: the loop's own blocks in this context, plus the
      // full body of every callee context entered from inside the loop.
      std::vector<std::pair<int, int>> units;
      bool eligible = true;
      for (const int bid : loop->blocks) {
        units.push_back({ctx.id, bid});
        const auto& b = cfg.block(bid);
        if (b.callee < 0) continue;
        // Find the call edge leaving this block.
        for (const int e : b.succEdges) {
          if (!this->cfgs_[static_cast<std::size_t>(ctx.function)]
                   .edge(e)
                   .isCall()) {
            continue;
          }
          const Context* child = childContext(ctx.id, e);
          if (child == nullptr) {
            eligible = false;
            break;
          }
          collectContext(collectContext, *child, &units);
        }
        if (!eligible) break;
      }
      if (!eligible) continue;

      // Cache-fit check over all units' lines.
      std::set<std::int64_t> lines;
      for (const auto& [uctx, ublock] : units) {
        const int ufn = contexts_[static_cast<std::size_t>(uctx)].function;
        const vm::Function& fn = module_->function(ufn);
        const auto& b = cfgs_[static_cast<std::size_t>(ufn)].block(ublock);
        for (int i = b.firstInstr; i <= b.lastInstr; ++i) {
          lines.insert(fn.instrAddr(i) / lineBytes);
        }
      }
      std::set<std::int64_t> cacheSets;
      for (const std::int64_t line : lines) cacheSets.insert(line % numSets);
      if (cacheSets.size() != lines.size()) continue;

      lp::LinearExpr entries;
      for (const int e : loop->entryEdges) entries.add(dVar(ctx.id, e), 1.0);

      for (const auto& [uctx, ublock] : units) {
        if (!assigned.insert({uctx, ublock}).second) continue;
        const int ufn = contexts_[static_cast<std::size_t>(uctx)].function;
        const vm::Function& fn = module_->function(ufn);
        const auto& b = cfgs_[static_cast<std::size_t>(ufn)].block(ublock);
        const march::BlockCost cost =
            model_.blockCost(fn, b.firstInstr, b.lastInstr);
        const std::int64_t allHit =
            model_.worstCyclesAllHit(fn, b.firstInstr, b.lastInstr);
        if (cost.worst == allHit) continue;

        const std::string& key =
            contexts_[static_cast<std::size_t>(uctx)].key;
        const int xf =
            p.addVar(fn.name + ".xfirst" + std::to_string(ublock) +
                     (key.empty() ? "" : "[" + key + "]"));
        base->worstCoeff.push_back(0.0);
        base->bestCoeff.push_back(0.0);

        lp::LinearExpr capX;
        capX.add(xf, 1.0);
        capX.add(xVar(uctx, ublock), -1.0);
        p.addConstraint(std::move(capX), lp::Relation::LessEq, 0.0);
        lp::LinearExpr capEntries;
        capEntries.add(xf, 1.0);
        for (const auto& t : entries.terms()) {
          capEntries.add(t.var, -t.coeff);
        }
        p.addConstraint(std::move(capEntries), lp::Relation::LessEq, 0.0);

        base->worstCoeff[static_cast<std::size_t>(xVar(uctx, ublock))] =
            static_cast<double>(allHit);
        base->worstCoeff[static_cast<std::size_t>(xf)] =
            static_cast<double>(cost.worst - allHit);
      }
    }
  }
}

void Analyzer::applyConflictGraphCache(System* base) const {
  lp::Problem& p = base->problem;
  const int numSets = options_.machine.numSets();
  const int lineBytes = options_.machine.cacheLineBytes;
  const double missPenalty =
      static_cast<double>(options_.machine.missPenalty);

  // --- Function-level supergraph over the reachable code. -------------
  // Nodes are (function, block); y(node) aggregates the per-context
  // execution counts, because cache state is shared across contexts.
  std::set<int> reachableFns;
  for (const auto& ctx : contexts_) reachableFns.insert(ctx.function);

  std::map<std::pair<int, int>, int> nodeIndex;
  std::vector<std::pair<int, int>> nodes;  // (function, block)
  for (const int fn : reachableFns) {
    const auto& cfg = cfgs_[static_cast<std::size_t>(fn)];
    for (int b = 0; b < cfg.numBlocks(); ++b) {
      nodeIndex[{fn, b}] = static_cast<int>(nodes.size());
      nodes.push_back({fn, b});
    }
  }

  // Aggregate count variables, and move the (all-hit) worst cost from
  // the per-context x variables onto them.
  std::vector<int> yVar(nodes.size(), -1);
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const auto [fn, b] = nodes[n];
    const vm::Function& function = module_->function(fn);
    const auto& block = cfgs_[static_cast<std::size_t>(fn)].block(b);
    const int y = p.addVar("y:" + function.name + ".x" + std::to_string(b));
    base->worstCoeff.push_back(static_cast<double>(
        model_.worstCyclesAllHit(function, block.firstInstr,
                                 block.lastInstr)));
    base->bestCoeff.push_back(0.0);
    yVar[n] = y;

    lp::LinearExpr link;
    link.add(y, 1.0);
    for (const auto& ctx : contexts_) {
      if (ctx.function != fn) continue;
      link.add(xVar(ctx.id, b), -1.0);
      base->worstCoeff[static_cast<std::size_t>(xVar(ctx.id, b))] = 0.0;
    }
    p.addConstraint(std::move(link), lp::Relation::Equal, 0.0);
  }

  // Supergraph successors: intra-function flow, call edges into callee
  // entries, callee exits into every continuation (a conservative
  // superset of real interprocedural paths, which keeps the CCG sound).
  std::vector<std::vector<int>> succ(nodes.size());
  for (const int fn : reachableFns) {
    const auto& cfg = cfgs_[static_cast<std::size_t>(fn)];
    for (const auto& e : cfg.edges()) {
      if (e.isEntry()) continue;
      if (e.isCall()) {
        CIN_REQUIRE(!e.isExit());
        succ[static_cast<std::size_t>(nodeIndex.at({fn, e.from}))].push_back(
            nodeIndex.at({e.callee, 0}));
        const auto& calleeCfg = cfgs_[static_cast<std::size_t>(e.callee)];
        for (const int exitEdge : calleeCfg.exitEdges()) {
          succ[static_cast<std::size_t>(
                   nodeIndex.at({e.callee, calleeCfg.edge(exitEdge).from}))]
              .push_back(nodeIndex.at({fn, e.to}));
        }
      } else if (!e.isExit()) {
        succ[static_cast<std::size_t>(nodeIndex.at({fn, e.from}))].push_back(
            nodeIndex.at({fn, e.to}));
      }
    }
  }
  for (auto& s : succ) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }

  // --- L-blocks per cache set. ----------------------------------------
  struct Item {
    int node = 0;
    std::int64_t line = 0;
  };
  std::vector<std::vector<Item>> itemsOfSet(
      static_cast<std::size_t>(numSets));
  std::vector<bool> fallback(static_cast<std::size_t>(numSets), false);
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const auto [fn, b] = nodes[n];
    const vm::Function& function = module_->function(fn);
    const auto& block = cfgs_[static_cast<std::size_t>(fn)].block(b);
    const std::int64_t firstLine =
        function.instrAddr(block.firstInstr) / lineBytes;
    const std::int64_t lastLine =
        (function.instrAddr(block.lastInstr) + vm::kInstrBytes - 1) /
        lineBytes;
    for (std::int64_t line = firstLine; line <= lastLine; ++line) {
      const auto set = static_cast<std::size_t>(line % numSets);
      // Two lines of the same set inside one block (block larger than
      // the whole cache): no per-visit hit/miss split is meaningful.
      for (const Item& existing : itemsOfSet[set]) {
        if (existing.node == static_cast<int>(n)) fallback[set] = true;
      }
      itemsOfSet[set].push_back({static_cast<int>(n), line});
    }
  }

  // --- Per-set conflict graphs. ----------------------------------------
  const int rootEntryNode = nodeIndex.at({root_, 0});
  for (int set = 0; set < numSets; ++set) {
    const auto& items = itemsOfSet[static_cast<std::size_t>(set)];
    if (items.empty()) continue;
    if (fallback[static_cast<std::size_t>(set)] ||
        static_cast<int>(items.size()) > options_.conflictGraphNodeCap) {
      // All-miss for every fetch of this set's lines.
      ++base->cacheFallbackSets;
      for (const Item& item : items) {
        base->worstCoeff[static_cast<std::size_t>(
            yVar[static_cast<std::size_t>(item.node)])] += missPenalty;
      }
      continue;
    }

    // Which supergraph nodes hold an item of this set.
    std::map<int, int> itemOfNode;  // node -> item index
    for (std::size_t i = 0; i < items.size(); ++i) {
      itemOfNode[items[i].node] = static_cast<int>(i);
    }

    // BFS through non-set nodes; returns the item indices reachable as
    // *next* set visit starting from the given frontier.
    auto reachableItems = [&](std::vector<int> frontier,
                              bool frontierMayContainItems) {
      std::set<int> found;
      std::vector<char> visited(nodes.size(), 0);
      std::vector<int> work;
      for (const int n : frontier) {
        if (frontierMayContainItems && itemOfNode.count(n)) {
          found.insert(itemOfNode.at(n));
          continue;
        }
        if (!visited[static_cast<std::size_t>(n)]) {
          visited[static_cast<std::size_t>(n)] = 1;
          work.push_back(n);
        }
      }
      while (!work.empty()) {
        const int n = work.back();
        work.pop_back();
        for (const int next : succ[static_cast<std::size_t>(n)]) {
          const auto it = itemOfNode.find(next);
          if (it != itemOfNode.end()) {
            found.insert(it->second);
            continue;  // do not traverse through a set visit
          }
          if (!visited[static_cast<std::size_t>(next)]) {
            visited[static_cast<std::size_t>(next)] = 1;
            work.push_back(next);
          }
        }
      }
      return found;
    };

    // Flow variables.
    const std::string tag = "s" + std::to_string(set);
    std::vector<int> pStart(items.size(), -1);
    std::vector<int> pEnd(items.size(), -1);
    std::vector<int> xMiss(items.size(), -1);
    auto addVar = [&](const std::string& name, double worstCoeff) {
      const int v = p.addVar(name);
      base->worstCoeff.push_back(worstCoeff);
      base->bestCoeff.push_back(0.0);
      ++base->cacheFlowVars;
      return v;
    };
    for (std::size_t i = 0; i < items.size(); ++i) {
      pStart[i] = addVar("p:" + tag + ":start>" + std::to_string(i), 0.0);
      pEnd[i] = addVar("p:" + tag + ":" + std::to_string(i) + ">end", 0.0);
      xMiss[i] = addVar("miss:" + tag + ":" + std::to_string(i),
                        missPenalty);
    }
    const int pStartEnd = addVar("p:" + tag + ":start>end", 0.0);

    // Edge variables, from per-item reachability.
    std::map<std::pair<int, int>, int> pEdge;
    for (std::size_t u = 0; u < items.size(); ++u) {
      const auto targets = reachableItems(
          succ[static_cast<std::size_t>(items[u].node)],
          /*frontierMayContainItems=*/true);
      for (const int v : targets) {
        pEdge[{static_cast<int>(u), v}] =
            addVar("p:" + tag + ":" + std::to_string(u) + ">" +
                       std::to_string(v),
                   0.0);
      }
    }
    const auto startTargets =
        reachableItems({rootEntryNode}, /*frontierMayContainItems=*/true);

    // start flow: exactly one program run.
    {
      lp::LinearExpr start;
      start.add(pStartEnd, 1.0);
      for (const int v : startTargets) {
        start.add(pStart[static_cast<std::size_t>(v)], 1.0);
      }
      p.addConstraint(std::move(start), lp::Relation::Equal, 1.0);
      // Items not reachable as the first visit keep pStart = 0.
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (!startTargets.count(static_cast<int>(i))) {
          lp::LinearExpr zero;
          zero.add(pStart[i], 1.0);
          p.addConstraint(std::move(zero), lp::Relation::Equal, 0.0);
        }
      }
    }

    // Flow conservation and miss bounds.
    for (std::size_t v = 0; v < items.size(); ++v) {
      const int y = yVar[static_cast<std::size_t>(items[v].node)];

      lp::LinearExpr in;
      in.add(pStart[v], 1.0);
      lp::LinearExpr missBound;
      missBound.add(xMiss[v], 1.0);
      missBound.add(pStart[v], -1.0);
      for (const auto& [edge, var] : pEdge) {
        if (edge.second != static_cast<int>(v)) continue;
        in.add(var, 1.0);
        if (items[static_cast<std::size_t>(edge.first)].line !=
            items[v].line) {
          missBound.add(var, -1.0);  // conflicting predecessor
        }
      }
      in.add(y, -1.0);
      p.addConstraint(std::move(in), lp::Relation::Equal, 0.0);
      p.addConstraint(std::move(missBound), lp::Relation::LessEq, 0.0);

      lp::LinearExpr out;
      out.add(pEnd[v], 1.0);
      for (const auto& [edge, var] : pEdge) {
        if (edge.first == static_cast<int>(v)) out.add(var, 1.0);
      }
      out.add(y, -1.0);
      p.addConstraint(std::move(out), lp::Relation::Equal, 0.0);
    }
  }
}

lp::Constraint Analyzer::resolveSymConstraint(const SymConstraint& sc) const {
  lp::LinearExpr expr;
  double rhs = 0.0;
  for (const auto& term : sc.lhs) {
    if (term.var) {
      const lp::LinearExpr vars = resolve(*term.var);
      for (const auto& t : vars.terms()) {
        expr.add(t.var, static_cast<double>(term.coeff) * t.coeff);
      }
    } else if (!term.param.empty()) {
      // A bound parameter is a constant: fold coeff * value exactly as
      // if the number had been written in the constraint text.
      rhs -= static_cast<double>(term.coeff) *
             static_cast<double>(paramValue(term.param));
    } else {
      rhs -= static_cast<double>(term.coeff);
    }
  }
  for (const auto& term : sc.rhs) {
    if (term.var) {
      const lp::LinearExpr vars = resolve(*term.var);
      for (const auto& t : vars.terms()) {
        expr.add(t.var, -static_cast<double>(term.coeff) * t.coeff);
      }
    } else if (!term.param.empty()) {
      rhs += static_cast<double>(term.coeff) *
             static_cast<double>(paramValue(term.param));
    } else {
      rhs += static_cast<double>(term.coeff);
    }
  }
  return lp::Constraint{std::move(expr), sc.rel, rhs};
}

std::int64_t Analyzer::paramValue(const std::string& name) const {
  const auto it = paramBindings_.find(name);
  if (it == paramBindings_.end()) {
    throw AnalysisError(
        "constraint references unbound parameter '@" + name +
        "' — bind a value or run the parametric analysis mode");
  }
  return it->second;
}

void Analyzer::bindParam(std::string_view name, std::int64_t value) {
  paramBindings_[std::string(name)] = value;
}

void Analyzer::clearParamBindings() { paramBindings_.clear(); }

std::vector<std::string> Analyzer::referencedParams() const {
  std::vector<std::string> names;
  for (const auto& dnf : userConstraints_) {
    for (const auto& set : dnf) {
      for (const auto& sc : set) {
        for (const auto* side : {&sc.lhs, &sc.rhs}) {
          for (const auto& term : *side) {
            if (!term.param.empty()) names.push_back(term.param);
          }
        }
      }
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

lp::Problem Analyzer::materializeSet(const System& base,
                                     const ConjunctiveSet& set) const {
  lp::Problem p = base.problem;
  for (const auto& sc : set) p.addConstraint(resolveSymConstraint(sc));
  return p;
}

std::string Analyzer::concreteRowKey(const SymConstraint& sc) const {
  return canonicalRowKey(resolveSymConstraint(sc));
}

namespace {

/// A set's row keys, sorted with duplicates removed.  Under
/// concreteRowKey, identical vectors => identical regions and a proper
/// subset => a superset region (set deduplication and domination).
template <typename RowKey>
std::vector<std::string> setRowKeys(const ConjunctiveSet& set,
                                    const RowKey& rowKey) {
  std::vector<std::string> rows;
  rows.reserve(set.size());
  for (const auto& sc : set) rows.push_back(rowKey(sc));
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// Appends `tag` and every set's row keys, the set list sorted with
/// duplicates removed (the bound ignores DNF expansion order).
template <typename RowKey>
void hashSets(DigestBuilder* builder, char tag, const Dnf& sets,
              const RowKey& rowKey) {
  std::vector<std::vector<std::string>> setKeys;
  setKeys.reserve(sets.size());
  for (const auto& set : sets) setKeys.push_back(setRowKeys(set, rowKey));
  std::sort(setKeys.begin(), setKeys.end());
  setKeys.erase(std::unique(setKeys.begin(), setKeys.end()), setKeys.end());
  builder->tag(tag);
  builder->u32(static_cast<std::uint32_t>(setKeys.size()));
  for (const auto& rows : setKeys) {
    builder->u32(static_cast<std::uint32_t>(rows.size()));
    for (const auto& row : rows) builder->str(row);
  }
}

}  // namespace

const Analyzer::System& Analyzer::system(obs::Tracer* tracer) const {
  const std::lock_guard<std::mutex> lock(*systemMutex_);
  return systemLocked(tracer);
}

Analyzer::System& Analyzer::systemLocked(obs::Tracer* tracer) const {
  if (system_ != nullptr) return *system_;
  auto built = std::make_unique<System>();
  System& sys = *built;
  {
    obs::Span span(tracer, "build-base-problem", "ipet");
    buildBaseProblem(&sys);
  }
  {
    // The DNF cross-product of all user constraints (paper III-D).
    obs::Span span(tracer, "combine-constraints", "ipet");
    sys.sets = {ConjunctiveSet{}};
    for (const auto& dnf : userConstraints_) {
      sys.sets = conjoin(sys.sets, dnf);
      if (static_cast<int>(sys.sets.size()) > options_.maxConstraintSets) {
        throw AnalysisError("functionality-constraint disjunctions expand to "
                            "too many constraint sets");
      }
    }
  }
  sys.worstObjective = lp::LinearExpr::fromDense(sys.worstCoeff);
  sys.bestObjective = lp::LinearExpr::fromDense(sys.bestCoeff);
  system_ = std::move(built);
  return sys;
}

const DigestBuilder& Analyzer::structuralDigest(obs::Tracer* tracer) const {
  const std::lock_guard<std::mutex> lock(*systemMutex_);
  System& sys = systemLocked(tracer);
  if (structuralHashed_) return sys.structural;
  // The structural digest: everything common to all constraint sets.
  DigestBuilder builder;
  builder.tag('V');
  builder.u32(static_cast<std::uint32_t>(sys.problem.numVars()));
  // Base rows, order-normalized like a constraint set's: the digest must
  // not depend on emission order, only on the region they carve.
  std::vector<std::string> baseRows;
  baseRows.reserve(sys.problem.constraints().size());
  for (const auto& c : sys.problem.constraints()) {
    baseRows.push_back(canonicalRowKey(c));
  }
  std::sort(baseRows.begin(), baseRows.end());
  baseRows.erase(std::unique(baseRows.begin(), baseRows.end()),
                 baseRows.end());
  builder.tag('B');
  builder.u32(static_cast<std::uint32_t>(baseRows.size()));
  for (const auto& row : baseRows) builder.str(row);
  builder.tag('W');
  builder.u32(static_cast<std::uint32_t>(sys.worstCoeff.size()));
  for (const double c : sys.worstCoeff) builder.f64(c);
  builder.tag('C');
  builder.u32(static_cast<std::uint32_t>(sys.bestCoeff.size()));
  for (const double c : sys.bestCoeff) builder.f64(c);
  sys.structural = builder;
  structuralHashed_ = true;
  return sys.structural;
}

Analyzer::SystemDigests Analyzer::systemDigests(obs::Tracer* tracer) const {
  const DigestBuilder& structural = structuralDigest(tracer);
  const System& sys = system(tracer);
  SystemDigests out;
  out.structural = structural.finish();
  // Full digest: the structural prefix plus every expanded constraint
  // set's canonical rows.
  DigestBuilder builder = structural;
  hashSets(&builder, 'S', sys.sets,
           [this](const SymConstraint& sc) { return concreteRowKey(sc); });
  out.full = builder.finish();
  return out;
}

std::string Analyzer::symbolicRowKey(const SymConstraint& sc) const {
  // Split the row into its parameter-free part (canonicalized exactly
  // like a concrete row) and the rhs gradient per parameter — the key is
  // invariant under bindings and names the *family* of concrete rows the
  // constraint expands to.
  SymConstraint stripped;
  stripped.rel = sc.rel;
  std::map<std::string, std::int64_t> gradient;  // d(rhs)/d(param)
  for (const auto& term : sc.lhs) {
    if (!term.param.empty()) {
      gradient[term.param] -= term.coeff;
    } else {
      stripped.lhs.push_back(term);
    }
  }
  for (const auto& term : sc.rhs) {
    if (!term.param.empty()) {
      gradient[term.param] += term.coeff;
    } else {
      stripped.rhs.push_back(term);
    }
  }
  std::string key = canonicalRowKey(resolveSymConstraint(stripped));
  for (const auto& [name, g] : gradient) {
    if (g == 0) continue;
    key += '|';
    key += name;
    key += ':';
    key += std::to_string(g);
  }
  return key;
}

Digest Analyzer::parametricDigest(const std::vector<ParamDecl>& params,
                                  obs::Tracer* tracer) const {
  DigestBuilder builder = structuralDigest(tracer);
  const System& sys = system(tracer);
  hashSets(&builder, 'Y', sys.sets,
           [this](const SymConstraint& sc) { return symbolicRowKey(sc); });
  builder.tag('P');
  builder.u32(static_cast<std::uint32_t>(params.size()));
  for (const auto& p : params) {
    builder.str(p.name);
    builder.i64(p.lo);
    builder.i64(p.hi);
  }
  return builder.finish();
}

std::string Analyzer::exportWorstCaseIlp() const {
  const System& sys = system(nullptr);
  std::string out;
  int index = 0;
  for (const auto& set : sys.sets) {
    lp::Problem p = materializeSet(sys, set);
    p.setObjective(sys.worstObjective, lp::Sense::Maximize);
    out += "\\ constraint set " + std::to_string(index++) + " of " +
           std::to_string(sys.sets.size()) + "\n";
    out += lp::toLpFormat(p, {.integer = true, .header = false});
  }
  return out;
}

Estimate Analyzer::estimate(const SolveControl& control) const {
  const auto startTime = std::chrono::steady_clock::now();
  obs::Tracer* const tracer = control.tracer;
  obs::Span estimateSpan(tracer, "estimate", "ipet");

  const auto microsSince = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  const System& sys = system(tracer);
  const Dnf& combined = sys.sets;

  estimateSpan.arg("sets", static_cast<int>(combined.size()))
      .arg("cache-mode", std::string(cacheModeStr(options_.cacheMode)))
      .arg("contexts", static_cast<int>(contexts_.size()))
      .arg("flow-vars", numFlowVars_);

  // Pre-pass: canonicalize every expanded set, deduplicate identical
  // ones, and prune sets whose canonical rows are a proper superset of
  // another set's.  A superset of rows carves a sub-region, so the
  // covering set's worst bound is >= and its best bound is <= the
  // skipped set's — dropping the skipped set cannot change the merged
  // interval.  Computed on the main thread before dispatch so the
  // schedule is identical across thread counts.
  struct SetPlan {
    int sharedWith = -1;  ///< scheduled set whose solve covers this one
    bool dominated = false;
  };
  std::vector<SetPlan> plan(combined.size());
  int scheduledSets = static_cast<int>(combined.size());
  if (combined.size() > 1) {
    obs::Span dedupSpan(tracer, "dedup-sets", "ipet");
    std::vector<std::vector<std::string>> keys(combined.size());
    for (std::size_t i = 0; i < combined.size(); ++i) {
      keys[i] = setRowKeys(combined[i], [this](const SymConstraint& sc) {
        return concreteRowKey(sc);
      });
    }
    // Identical sets: the first occurrence is the representative.
    std::map<std::vector<std::string>, int> firstByKey;
    std::vector<int> reps;
    for (std::size_t i = 0; i < combined.size(); ++i) {
      const auto [it, inserted] =
          firstByKey.try_emplace(keys[i], static_cast<int>(i));
      if (inserted) {
        reps.push_back(static_cast<int>(i));
      } else {
        plan[i].sharedWith = it->second;
      }
    }
    // Proper-subset domination among the representatives, smallest row
    // count first so a dominator is always scheduled itself.  Quadratic
    // in representatives, so capped.
    if (reps.size() <= 256) {
      std::stable_sort(reps.begin(), reps.end(), [&](int a, int b) {
        return keys[static_cast<std::size_t>(a)].size() <
               keys[static_cast<std::size_t>(b)].size();
      });
      std::vector<int> kept;
      for (const int i : reps) {
        const auto& rows = keys[static_cast<std::size_t>(i)];
        int dominator = -1;
        for (const int j : kept) {
          const auto& sub = keys[static_cast<std::size_t>(j)];
          if (sub.size() < rows.size() &&
              std::includes(rows.begin(), rows.end(), sub.begin(),
                            sub.end())) {
            dominator = j;
            break;
          }
        }
        if (dominator >= 0) {
          plan[static_cast<std::size_t>(i)].sharedWith = dominator;
          plan[static_cast<std::size_t>(i)].dominated = true;
        } else {
          kept.push_back(i);
        }
      }
    }
    // Resolve chains (duplicate -> dominated representative -> its
    // dominator) so every skipped set points at a set that runs.
    for (auto& pl : plan) {
      while (pl.sharedWith >= 0 &&
             plan[static_cast<std::size_t>(pl.sharedWith)].sharedWith >= 0) {
        const SetPlan& next = plan[static_cast<std::size_t>(pl.sharedWith)];
        pl.dominated = pl.dominated || next.dominated;
        pl.sharedWith = next.sharedWith;
      }
      if (pl.sharedWith >= 0) --scheduledSets;
    }
    dedupSpan.arg("scheduled", scheduledSets);
  }
  estimateSpan.arg("scheduled", scheduledSets);

  ilp::IlpOptions ilpOptions = options_.ilpOptions;
  if (control.maxNodes > 0) ilpOptions.maxNodes = control.maxNodes;
  ilpOptions.lpOptions.presolve = control.presolve;

  auto cancelled = [&control] {
    return control.cancel != nullptr &&
           control.cancel->load(std::memory_order_relaxed);
  };
  auto expired = [&control, startTime] {
    // Fault-injection seam: a DeadlineClock fault makes the deadline
    // report "expired" spuriously, driving the partial-result path
    // without real waiting.
    if (support::FaultInjector* const injector = support::faultInjector()) {
      if (injector->shouldFault(support::FaultSite::DeadlineClock)) {
        return true;
      }
    }
    return control.deadline.count() != 0 &&
           std::chrono::steady_clock::now() - startTime >= control.deadline;
  };
  // A deadline (or cancellation) also stops a running ILP between nodes,
  // so a single slow set cannot blow the whole budget.
  if (control.deadline.count() != 0 || control.cancel != nullptr ||
      support::faultInjector() != nullptr) {
    ilpOptions.interrupt = [cancelled, expired] {
      return cancelled() || expired();
    };
  }

  // Sound integer rounding for relaxation bounds.  A max-ILP's LP
  // relaxation over-estimates its optimum, so flooring (plus the LP
  // tolerance) keeps the upper bound sound; symmetrically for min.
  constexpr double kRelaxTol = 1e-6;
  constexpr double kInt64Edge = 9.2e18;  // doubles beyond here can't narrow
  auto soundBound = [&](double v, bool upper) {
    if (v >= kInt64Edge) return std::numeric_limits<std::int64_t>::max();
    if (v <= -kInt64Edge) return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(upper ? std::floor(v + kRelaxTol)
                                           : std::ceil(v - kRelaxTol));
  };

  // Structural fallback: the base problem's own LP relaxation.  Every
  // constraint set's feasible region is contained in the base region, so
  // its max (min) relaxation bounds every set's worst (best) ILP from
  // the sound side.  Computed lazily at most once per estimate() and
  // shared across worker threads.
  struct Structural {
    std::once_flag once;
    bool haveWorst = false;
    bool haveBest = false;
    std::int64_t worst = 0;
    std::int64_t best = 0;
  };
  Structural structural;
  auto ensureStructural = [&]() -> const Structural& {
    std::call_once(structural.once, [&] {
      obs::Span span(tracer, "structural-fallback", "solve");
      auto solveOne = [&](const lp::LinearExpr& objective, lp::Sense sense,
                          bool* have, std::int64_t* bound) {
        try {
          lp::Problem p = sys.problem;
          p.setObjective(objective, sense);
          const lp::Solution sol = lp::solve(p, ilpOptions.lpOptions);
          if (sol.status == lp::SolveStatus::Optimal) {
            *bound = soundBound(sol.objective, sense == lp::Sense::Maximize);
            *have = true;
          }
        } catch (...) {
          // Even the fallback can fault (e.g. under injection); the set
          // that needed it is then marked Failed.
        }
      };
      solveOne(sys.worstObjective, lp::Sense::Maximize, &structural.haveWorst,
               &structural.worst);
      solveOne(sys.bestObjective, lp::Sense::Minimize, &structural.haveBest,
               &structural.best);
    });
    return structural;
  };

  // One independent task per conjunctive constraint set: materialize,
  // LP-probe for nullness, then solve the max (worst) and min (best)
  // ILPs.  Outcomes are keyed by set index so the merge below is
  // deterministic regardless of completion order or thread count.
  //
  // Fault isolation: a set hitting the deadline, node budget, numeric
  // breakdown, or an injected fault never aborts the whole estimate.  It
  // walks the degradation ladder instead — its own LP-relaxation bound
  // (Relaxed), then the shared base-problem bound (Structural), then
  // Failed — so completed sets are never lost.  Only user/model errors
  // (AnalysisError) still abort.
  struct SetOutcome {
    bool started = false;  ///< task ran at all (false: lost to a fault)
    bool skipped = false;  ///< cancellation observed before solving
    bool haveWorst = false;
    bool haveBest = false;
    bool worstExact = false;  ///< bound is a proven ILP optimum
    bool bestExact = false;
    std::int64_t worstBound = 0;
    std::int64_t bestBound = 0;
    std::vector<double> worstValues;
    std::vector<double> bestValues;
    /// Per-set observability record; every field except the wall-clock
    /// timings is deterministic across thread counts.
    SetSolveRecord record;
    std::vector<SolveIssue> issues;
    std::exception_ptr error;  ///< user/model error — rethrown at merge
  };
  std::vector<SetOutcome> outcomes(combined.size());
  std::atomic<bool> sawDeadline{false};

  auto noteIssue = [](SetOutcome& out, ErrorCode code, const char* phase,
                      std::string detail) {
    if (out.record.issue == ErrorCode::None) out.record.issue = code;
    out.issues.push_back(
        {out.record.setIndex, code, phase, std::move(detail)});
  };
  // Records `bound` as one side's contribution of this set.
  auto setBound = [](SetOutcome& out, bool worstSide, std::int64_t bound) {
    (worstSide ? out.haveWorst : out.haveBest) = true;
    (worstSide ? out.worstBound : out.bestBound) = bound;
  };
  auto raiseVerdict = [](SetOutcome& out, SetVerdict verdict) {
    if (static_cast<int>(verdict) > static_cast<int>(out.record.verdict)) {
      out.record.verdict = verdict;
    }
  };
  // Last ladder rung before Failed: the shared structural bound.
  auto applyStructural = [&](SetOutcome& out, bool worstSide) {
    const Structural& s = ensureStructural();
    const bool have = worstSide ? s.haveWorst : s.haveBest;
    if (!have) {
      raiseVerdict(out, SetVerdict::Failed);
      return;
    }
    raiseVerdict(out, SetVerdict::Structural);
    IlpSolveRecord& slot = worstSide ? out.record.worst : out.record.best;
    slot.degraded = true;
    slot.fallbackBound = worstSide ? s.worst : s.best;
    setBound(out, worstSide, slot.fallbackBound);
  };

  auto solveSet = [&](std::size_t index) noexcept {
    SetOutcome& out = outcomes[index];
    out.started = true;
    SetSolveRecord& rec = out.record;
    rec.setIndex = static_cast<int>(index);
    rec.userConstraints = static_cast<int>(combined[index].size());
    const auto setStart = std::chrono::steady_clock::now();
    // This span is also the thread-pool task lifetime: one task per set.
    obs::Span setSpan(tracer, "set-solve", "solve");
    setSpan.arg("set", static_cast<int>(index));
    try {
      if (cancelled()) {
        out.skipped = true;
        setSpan.arg("verdict", std::string("skipped"));
        rec.wallMicros = microsSince(setStart);
        return;
      }
      if (expired()) {
        // Degrade instead of aborting: this set falls back to the shared
        // structural bound; already-completed sets stay untouched.
        sawDeadline.store(true, std::memory_order_relaxed);
        noteIssue(out, ErrorCode::DeadlineExpired, "set",
                  "deadline expired before this set was solved");
        applyStructural(out, /*worstSide=*/true);
        applyStructural(out, /*worstSide=*/false);
        setSpan.arg("verdict", std::string(setVerdictStr(rec.verdict)));
        rec.wallMicros = microsSince(setStart);
        return;
      }
      lp::Problem p = materializeSet(sys, combined[index]);
      if (control.maxMemoryBytes > 0) {
        // Backpressure quota: a conservative dense-tableau footprint of
        // this set's ILP, computed before anything is allocated.  Over
        // the ceiling the set degrades to the sound structural bound —
        // same shape as a deadline expiry, so a hostile or runaway
        // request can never balloon the process.
        const std::size_t rows = p.constraints().size();
        const std::size_t cols = static_cast<std::size_t>(p.numVars()) + rows;
        const std::size_t estimateBytes = (rows + 1) * (cols + 1) * 16;
        if (estimateBytes > control.maxMemoryBytes) {
          noteIssue(out, ErrorCode::MemoryCeiling, "set",
                    "estimated solve footprint " +
                        std::to_string(estimateBytes) +
                        " bytes exceeds the ceiling of " +
                        std::to_string(control.maxMemoryBytes) + " bytes");
          applyStructural(out, /*worstSide=*/true);
          applyStructural(out, /*worstSide=*/false);
          setSpan.arg("verdict", std::string(setVerdictStr(rec.verdict)));
          rec.wallMicros = microsSince(setStart);
          return;
        }
      }

      // The probe and both root relaxations share one tableau over
      // these rows: a dual simplex from its slack basis answers the
      // probe, the primal simplex under the worst objective gives the
      // worst ILP's root relaxation, and re-priced under the best
      // objective it continues to the best ILP's root.
      // Branch-and-bound children dive from copies of it, which leave it
      // as it was.  The rows are presolved once for all of these; the
      // span covers the presolve and the tableau build.
      std::optional<lp::LiveTableau> live;
      {
        obs::Span presolveSpan(tracer, "lp-presolve", "solve");
        presolveSpan.arg("set", static_cast<int>(index));
        live.emplace(p, ilpOptions.lpOptions);
      }

      // Null-set pruning: a cheap LP feasibility probe (paper III-D).
      if (!options_.disableNullSetPruning) {
        obs::Span probeSpan(tracer, "lp-probe", "solve");
        probeSpan.arg("set", static_cast<int>(index));
        const auto probeStart = std::chrono::steady_clock::now();
        try {
          const lp::Solution sol = live->feasibility();
          rec.probePivots = sol.pivots;
          rec.probeMicros = microsSince(probeStart);
          const bool null = (sol.status == lp::SolveStatus::Infeasible);
          probeSpan.arg("pivots", sol.pivots)
              .arg("verdict", std::string(null ? "null" : "feasible"));
          if (null) {
            rec.pruned = true;
            setSpan.arg("verdict", std::string("pruned"));
            rec.wallMicros = microsSince(setStart);
            return;
          }
        } catch (const InjectedFaultError& e) {
          // Pruning is only an optimization; fall through to the ILPs.
          rec.probeMicros = microsSince(probeStart);
          noteIssue(out, ErrorCode::InjectedFault, "probe", e.what());
          probeSpan.arg("verdict", std::string("faulted"));
        } catch (const SolverError& e) {
          rec.probeMicros = microsSince(probeStart);
          noteIssue(out, ErrorCode::Internal, "probe", e.what());
          probeSpan.arg("verdict", std::string("faulted"));
        }
      }

      // One ILP per objective; fills `slot` and traces the solve.
      auto runIlp = [&](lp::Problem& problem, const char* spanName,
                        IlpSolveRecord* slot) {
        obs::Span ilpSpan(tracer, spanName, "solve");
        ilpSpan.arg("set", static_cast<int>(index));
        const auto ilpStart = std::chrono::steady_clock::now();
        ilp::IlpOptions setOptions = ilpOptions;
        setOptions.live = &*live;
        ilp::IlpSolution solution = ilp::solve(problem, setOptions);
        *slot = ilpSolveRecord(solution);
        slot->wallMicros = microsSince(ilpStart);
        ilpSpan.arg("verdict", std::string(ilp::ilpStatusStr(solution.status)))
            .arg("nodes", solution.stats.nodesExpanded)
            .arg("lp-calls", solution.stats.lpCalls)
            .arg("cold-nodes", solution.stats.coldNodes)
            .arg("pivots", solution.stats.totalPivots);
        if (slot->feasible) ilpSpan.arg("objective", slot->objective);
        return solution;
      };

      // Degrades one side to the set's own root LP-relaxation bound
      // after the integer solve died mid-flight; Structural beyond that.
      auto relaxFromOwnLp = [&](lp::Problem& problem, bool worstSide) {
        try {
          const lp::Solution sol = lp::solve(problem, ilpOptions.lpOptions);
          rec.fallbackPivots += sol.pivots;
          if (sol.status == lp::SolveStatus::Infeasible) {
            return;  // provably empty set: nothing to bound, and soundly so
          }
          if (sol.status == lp::SolveStatus::Optimal) {
            const std::int64_t bound = soundBound(sol.objective, worstSide);
            IlpSolveRecord& slot = worstSide ? rec.worst : rec.best;
            slot.degraded = true;
            slot.fallbackBound = bound;
            raiseVerdict(out, SetVerdict::Relaxed);
            setBound(out, worstSide, bound);
            return;
          }
        } catch (...) {
          // fall through to the structural rung
        }
        applyStructural(out, worstSide);
      };

      // Classifies a finished-but-not-optimal ILP side and walks the
      // ladder.  Returns via out/rec side effects.
      auto settleSide = [&](ilp::IlpSolution& solution, IlpSolveRecord* slot,
                            bool worstSide, const char* phase) {
        if (solution.status == ilp::IlpStatus::Optimal) {
          if (worstSide) {
            out.haveWorst = true;
            out.worstExact = !solution.objectiveSaturated;
            out.worstBound = slot->objective;
            out.worstValues = std::move(solution.values);
          } else {
            out.haveBest = true;
            out.bestExact = !solution.objectiveSaturated;
            out.bestBound = slot->objective;
            out.bestValues = std::move(solution.values);
          }
          if (solution.objectiveSaturated) {
            // The true objective lies beyond int64; the saturated value
            // is reported as a (representation-limited) relaxed bound.
            noteIssue(out, ErrorCode::NumericOverflow, phase,
                      "objective exceeds 64-bit range; bound saturated");
            raiseVerdict(out, SetVerdict::Relaxed);
            slot->degraded = true;
            slot->fallbackBound = slot->objective;
          }
          return;
        }
        if (solution.status == ilp::IlpStatus::Infeasible) {
          return;  // genuinely empty on this side; contributes nothing
        }
        // Limit or Interrupted: classify the budget that ran out.
        ErrorCode code = ErrorCode::PivotLimit;
        if (solution.status == ilp::IlpStatus::Interrupted) {
          code = cancelled() ? ErrorCode::Cancelled : ErrorCode::DeadlineExpired;
          if (code == ErrorCode::DeadlineExpired) {
            sawDeadline.store(true, std::memory_order_relaxed);
          }
        } else if (solution.stats.nodesExpanded >= ilpOptions.maxNodes) {
          code = ErrorCode::NodeBudgetExhausted;
        }
        noteIssue(out, code, phase,
                  std::string("integer solve stopped: ") +
                      ilp::ilpStatusStr(solution.status));
        if (solution.haveRelaxationBound) {
          const std::int64_t bound =
              soundBound(solution.relaxationBound, worstSide);
          slot->degraded = true;
          slot->fallbackBound = bound;
          raiseVerdict(out, SetVerdict::Relaxed);
          setBound(out, worstSide, bound);
        } else {
          applyStructural(out, worstSide);
        }
      };

      // Worst case: maximize all-miss costs.
      p.setObjective(sys.worstObjective, lp::Sense::Maximize);
      try {
        ilp::IlpSolution worst = runIlp(p, "ilp-worst", &rec.worst);
        if (worst.status == ilp::IlpStatus::Unbounded) {
          throw AnalysisError(
              "worst-case ILP is unbounded — a loop is missing its bound");
        }
        settleSide(worst, &rec.worst, /*worstSide=*/true, "ilp-worst");
      } catch (const InjectedFaultError& e) {
        noteIssue(out, ErrorCode::InjectedFault, "ilp-worst", e.what());
        relaxFromOwnLp(p, /*worstSide=*/true);
      } catch (const SolverError& e) {
        noteIssue(out, ErrorCode::Internal, "ilp-worst", e.what());
        relaxFromOwnLp(p, /*worstSide=*/true);
      }

      // Best case: minimize all-hit costs.
      p.setObjective(sys.bestObjective, lp::Sense::Minimize);
      try {
        ilp::IlpSolution best = runIlp(p, "ilp-best", &rec.best);
        settleSide(best, &rec.best, /*worstSide=*/false, "ilp-best");
      } catch (const InjectedFaultError& e) {
        noteIssue(out, ErrorCode::InjectedFault, "ilp-best", e.what());
        relaxFromOwnLp(p, /*worstSide=*/false);
      } catch (const SolverError& e) {
        noteIssue(out, ErrorCode::Internal, "ilp-best", e.what());
        relaxFromOwnLp(p, /*worstSide=*/false);
      }

      setSpan.arg("verdict", std::string(setVerdictStr(rec.verdict)));
      rec.wallMicros = microsSince(setStart);
    } catch (const AnalysisError&) {
      // User/model error (unbounded ILP, bad constraint): still aborts
      // the whole estimate — degradation must not mask a broken model.
      out.error = std::current_exception();
      rec.wallMicros = microsSince(setStart);
    } catch (const std::exception& e) {
      // Anything else is absorbed: degrade the unresolved sides.
      noteIssue(out,
                dynamic_cast<const InjectedFaultError*>(&e) != nullptr
                    ? ErrorCode::InjectedFault
                    : ErrorCode::Internal,
                "set", e.what());
      if (!out.haveWorst) applyStructural(out, /*worstSide=*/true);
      if (!out.haveBest) applyStructural(out, /*worstSide=*/false);
      rec.wallMicros = microsSince(setStart);
    } catch (...) {
      noteIssue(out, ErrorCode::Internal, "set", "unknown exception");
      if (!out.haveWorst) applyStructural(out, /*worstSide=*/true);
      if (!out.haveBest) applyStructural(out, /*worstSide=*/false);
      rec.wallMicros = microsSince(setStart);
    }
  };

  const int requested = control.threads > 0
                            ? control.threads
                            : support::ThreadPool::hardwareThreads();
  const int workers = std::min(requested, std::max(1, scheduledSets));
  estimateSpan.arg("workers", workers);
  {
    obs::Span dispatchSpan(tracer, "solve-sets", "ipet");
    dispatchSpan.arg("workers", workers)
        .arg("sets", static_cast<int>(combined.size()))
        .arg("scheduled", scheduledSets);
    if (workers <= 1) {
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (plan[i].sharedWith < 0) solveSet(i);
      }
    } else {
      support::ThreadPool pool(workers);
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (plan[i].sharedWith >= 0) continue;
        pool.submit([&solveSet, i] { solveSet(i); });
      }
      pool.wait();
    }
  }
  obs::Span mergeSpan(tracer, "merge", "ipet");

  // Lost-task recovery: a scheduled task dropped by a pool fault never
  // set `started`.  The hole is detected here (pool.wait() already
  // returned) and the set degrades to the structural bound.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SetOutcome& out = outcomes[i];
    if (out.started || plan[i].sharedWith >= 0) continue;
    out.record.setIndex = static_cast<int>(i);
    out.record.userConstraints = static_cast<int>(combined[i].size());
    noteIssue(out, ErrorCode::TaskLost, "dispatch",
              "solve task was lost before it ran");
    applyStructural(out, /*worstSide=*/true);
    applyStructural(out, /*worstSide=*/false);
  }

  // Fill the records of deduplicated / dominated sets from their
  // representative's outcome.  A null representative proves the skipped
  // set null too (its region is contained in the representative's), so
  // the all-sets-null diagnostic below still fires correctly.
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (plan[i].sharedWith < 0) continue;
    SetOutcome& out = outcomes[i];
    out.record.setIndex = static_cast<int>(i);
    out.record.userConstraints = static_cast<int>(combined[i].size());
    out.record.sharedWith = plan[i].sharedWith;
    out.record.dominated = plan[i].dominated;
    out.record.pruned =
        outcomes[static_cast<std::size_t>(plan[i].sharedWith)].record.pruned;
  }

  // Deterministic merge in set-index order.  The first user/model error
  // (by index) wins, mirroring the sequential solve order; solver faults
  // never surface as exceptions.
  for (const auto& out : outcomes) {
    if (out.error) std::rethrow_exception(out.error);
  }
  if (cancelled()) throw AnalysisError("estimate() cancelled");
  for (const auto& out : outcomes) {
    if (out.skipped) throw AnalysisError("estimate() cancelled");
  }

  Estimate result;
  result.stats.constraintSets = static_cast<int>(combined.size());
  result.stats.cacheFlowVars = sys.cacheFlowVars;
  result.stats.cacheFallbackSets = sys.cacheFallbackSets;
  result.timedOut = sawDeadline.load(std::memory_order_relaxed);
  result.setRecords.reserve(outcomes.size());

  bool haveWorst = false;
  bool haveBest = false;
  const std::vector<double>* worstValues = nullptr;
  const std::vector<double>* bestValues = nullptr;

  for (auto& out : outcomes) {
    const SetSolveRecord& rec = out.record;
    result.setRecords.push_back(rec);
    for (auto& issue : out.issues) result.issues.push_back(std::move(issue));
    if (rec.pruned) {
      ++result.stats.prunedNullSets;
      continue;
    }
    if (rec.sharedWith >= 0) {
      // Skipped set with a live representative: the representative's
      // contribution to the interval already covers it.
      if (rec.dominated) {
        ++result.stats.dominatedSets;
      } else {
        ++result.stats.dedupedSets;
      }
      continue;
    }
    switch (rec.verdict) {
      case SetVerdict::Exact:
        break;
      case SetVerdict::Relaxed:
        ++result.stats.relaxedSets;
        break;
      case SetVerdict::Structural:
        ++result.stats.structuralSets;
        break;
      case SetVerdict::Failed:
        ++result.stats.failedSets;
        break;
    }
    for (const IlpSolveRecord* ilpRec : {&rec.worst, &rec.best}) {
      if (ilpRec->solved) result.stats.addSolve(*ilpRec);
    }
    // The interval must cover every set, so degraded (non-exact) bounds
    // compete with exact ones; only an exact winner has a witness point.
    if (out.haveWorst && (!haveWorst || out.worstBound > result.bound.hi)) {
      result.bound.hi = out.worstBound;
      worstValues = out.worstExact ? &out.worstValues : nullptr;
      haveWorst = true;
    }
    if (out.haveBest && (!haveBest || out.bestBound < result.bound.lo)) {
      result.bound.lo = out.bestBound;
      bestValues = out.bestExact ? &out.bestValues : nullptr;
      haveBest = true;
    }
  }

  if (result.stats.prunedNullSets == static_cast<int>(outcomes.size())) {
    throw AnalysisError(
        "all functionality constraint sets are infeasible (null)");
  }
  if (!haveWorst || !haveBest) {
    if (result.stats.failedSets == 0 && !result.timedOut) {
      throw AnalysisError("no feasible constraint set yielded a bound (all "
                          "sets integer-infeasible)");
    }
    // Every fallback rung failed on some side.  Return the trivially
    // sound extremes rather than throwing; failedSets > 0 already marks
    // the estimate unsound.
    if (!haveWorst) {
      result.bound.hi = std::numeric_limits<std::int64_t>::max();
    }
    if (!haveBest) result.bound.lo = 0;
  }

  auto aggregateCounts = [&](const std::vector<double>& values) {
    std::vector<BlockCountRow> rows;
    for (int f = 0; f < module_->numFunctions(); ++f) {
      const auto& cfg = cfgs_[static_cast<std::size_t>(f)];
      for (int b = 0; b < cfg.numBlocks(); ++b) {
        std::int64_t total = 0;
        for (const auto& ctx : contexts_) {
          if (ctx.function != f) continue;
          total += static_cast<std::int64_t>(
              std::llround(values[static_cast<std::size_t>(xVar(ctx.id, b))]));
        }
        if (total != 0) rows.push_back({f, b, total});
      }
    }
    return rows;
  };

  if (worstValues != nullptr) result.worstCounts = aggregateCounts(*worstValues);
  if (bestValues != nullptr) result.bestCounts = aggregateCounts(*bestValues);
  return result;
}

}  // namespace cinderella::ipet
