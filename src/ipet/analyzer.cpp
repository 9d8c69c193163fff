#include "cinderella/ipet/analyzer.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "cinderella/cfg/callgraph.hpp"
#include "cinderella/ipet/formula.hpp"
#include "cinderella/lp/lp_format.hpp"
#include "cinderella/cfg/dominators.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella::ipet {

namespace {

/// Guards against call-tree and disjunction blow-up: the most contexts
/// a call tree may expand to, and the most constraint sets the user
/// constraints' DNF may combine into.  Each costs a copy of the
/// variable space or an ILP pair, so no real analysis comes near.
constexpr int kMaxContexts = 1 << 14;
constexpr int kMaxConstraintSets = 1 << 14;

/// Sorts `v` and drops its duplicates.
template <typename T>
void sortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

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
        if (static_cast<int>(contexts_.size()) >= kMaxContexts) {
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

      // Cache-fit check over all units' lines: no two distinct lines
      // may map to the same cache set.
      std::vector<std::int64_t> lines;
      for (const auto& [uctx, ublock] : units) {
        const int ufn = contexts_[static_cast<std::size_t>(uctx)].function;
        const vm::Function& fn = module_->function(ufn);
        const auto& b = cfgs_[static_cast<std::size_t>(ufn)].block(ublock);
        for (int i = b.firstInstr; i <= b.lastInstr; ++i) {
          lines.push_back(fn.instrAddr(i) / lineBytes);
        }
      }
      sortUnique(&lines);
      std::vector<std::int64_t> cacheSets;
      cacheSets.reserve(lines.size());
      for (const std::int64_t line : lines) cacheSets.push_back(line % numSets);
      sortUnique(&cacheSets);
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
    sortUnique(&s);
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
  sortUnique(&names);
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
  sortUnique(&rows);
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
  sortUnique(&setKeys);
  builder->tag(tag);
  builder->u32(static_cast<std::uint32_t>(setKeys.size()));
  for (const auto& rows : setKeys) {
    builder->u32(static_cast<std::uint32_t>(rows.size()));
    for (const auto& row : rows) builder->str(row);
  }
}

}  // namespace

std::vector<std::string> Analyzer::concreteSetKeys(
    const ConjunctiveSet& set) const {
  return setRowKeys(
      set, [this](const SymConstraint& sc) { return concreteRowKey(sc); });
}

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
      if (static_cast<int>(sys.sets.size()) > kMaxConstraintSets) {
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
  sortUnique(&baseRows);
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

}  // namespace cinderella::ipet
