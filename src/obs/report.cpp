#include "cinderella/obs/report.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cinderella/obs/json.hpp"
#include "cinderella/obs/metrics.hpp"
#include "cinderella/support/text.hpp"

namespace cinderella::obs {

void boundToJson(JsonWriter* w, const ipet::Interval& bound) {
  w->beginObject()
      .key("lo")
      .value(bound.lo)
      .key("hi")
      .value(bound.hi)
      .endObject();
}

void statsToJson(JsonWriter* w, const ipet::SolveStats& stats) {
  w->beginObject()
      .key("constraintSets")
      .value(stats.constraintSets)
      .key("prunedNullSets")
      .value(stats.prunedNullSets)
      .key("ilpSolves")
      .value(stats.ilpSolves)
      .key("lpCalls")
      .value(stats.lpCalls)
      .key("nodesExpanded")
      .value(stats.nodesExpanded)
      .key("totalPivots")
      .value(stats.totalPivots)
      .key("allFirstRelaxationsIntegral")
      .value(stats.allFirstRelaxationsIntegral)
      .key("cacheFlowVars")
      .value(stats.cacheFlowVars)
      .key("cacheFallbackSets")
      .value(stats.cacheFallbackSets)
      .key("relaxedSets")
      .value(stats.relaxedSets)
      .key("structuralSets")
      .value(stats.structuralSets)
      .key("failedSets")
      .value(stats.failedSets)
      .key("checkedPromotions")
      .value(stats.checkedPromotions)
      .key("blandRestarts")
      .value(stats.blandRestarts)
      .key("dedupedSets")
      .value(stats.dedupedSets)
      .key("dominatedSets")
      .value(stats.dominatedSets)
      .key("devexPivots")
      .value(stats.devexPivots)
      .key("presolveRowsRemoved")
      .value(stats.presolveRowsRemoved)
      .key("presolveColsFixed")
      .value(stats.presolveColsFixed)
      .key("presolveSubstitutions")
      .value(stats.presolveSubstitutions)
      .key("presolveRounds")
      .value(stats.presolveRounds)
      .endObject();
}

namespace {

void ilpRecordToJson(JsonWriter* w, const ipet::IlpSolveRecord& record,
                     const ReportOptions& options) {
  w->beginObject()
      .key("solved")
      .value(record.solved)
      .key("feasible")
      .value(record.feasible)
      .key("objective")
      .value(record.objective)
      .key("nodes")
      .value(record.nodes)
      .key("lpCalls")
      .value(record.lpCalls)
      .key("pivots")
      .value(record.pivots)
      .key("firstRelaxationIntegral")
      .value(record.firstRelaxationIntegral)
      .key("degraded")
      .value(record.degraded);
  if (record.degraded) w->key("fallbackBound").value(record.fallbackBound);
  if (record.checkedPromotions != 0) {
    w->key("checkedPromotions").value(record.checkedPromotions);
  }
  if (record.blandRestarts != 0) {
    w->key("blandRestarts").value(record.blandRestarts);
  }
  if (record.devexPivots != 0) {
    w->key("devexPivots").value(record.devexPivots);
  }
  if (record.presolveRowsRemoved != 0) {
    w->key("presolveRowsRemoved").value(record.presolveRowsRemoved);
  }
  if (record.presolveColsFixed != 0) {
    w->key("presolveColsFixed").value(record.presolveColsFixed);
  }
  if (record.presolveSubstitutions != 0) {
    w->key("presolveSubstitutions").value(record.presolveSubstitutions);
  }
  if (record.presolveRounds != 0) {
    w->key("presolveRounds").value(record.presolveRounds);
  }
  if (options.includeTimings) w->key("wallMicros").value(record.wallMicros);
  w->endObject();
}

}  // namespace

void addEstimateMetrics(const ipet::Estimate& estimate,
                        MetricsRegistry* metrics) {
  Counter& solves = metrics->counter("ilp.solves");
  Histogram& nodes = metrics->histogram("ilp.nodes");
  Histogram& pivots = metrics->histogram("ilp.pivots");
  Histogram& micros = metrics->histogram("ilp.micros");
  for (const ipet::SetSolveRecord& record : estimate.setRecords) {
    if (record.pruned || record.sharedWith >= 0) continue;
    for (const ipet::IlpSolveRecord* solve : {&record.worst, &record.best}) {
      if (!solve->solved) continue;
      solves.add(1);
      nodes.observe(solve->nodes);
      pivots.observe(solve->pivots);
      micros.observe(solve->wallMicros);
    }
  }
}

void foldCacheStats(const ipet::SolveCacheStats& stats,
                    MetricsSnapshot* snapshot) {
  const std::pair<const char*, std::int64_t> counters[] = {
      {"cache.bound_hits", stats.boundHits},
      {"cache.bound_misses", stats.boundMisses},
      {"cache.request_hits", stats.requestHits},
      {"cache.request_misses", stats.requestMisses},
      {"cache.formula_hits", stats.formulaHits},
      {"cache.formula_misses", stats.formulaMisses},
      {"cache.insertions", stats.insertions},
      {"cache.evictions", stats.evictions},
      {"cache.rejected_inserts", stats.rejectedInserts},
  };
  for (const auto& [name, value] : counters) snapshot->counters[name] = value;
}

void setRecordToJson(JsonWriter* w, const ipet::SetSolveRecord& record,
                     const ReportOptions& options) {
  w->beginObject()
      .key("set")
      .value(record.setIndex)
      .key("userConstraints")
      .value(record.userConstraints)
      .key("pruned")
      .value(record.pruned)
      .key("probePivots")
      .value(record.probePivots)
      .key("verdict")
      .value(ipet::setVerdictStr(record.verdict))
      .key("issue")
      .value(errorCodeStr(record.issue));
  if (record.sharedWith >= 0) {
    w->key("sharedWith").value(record.sharedWith);
    w->key("dominated").value(record.dominated);
  }
  if (record.fallbackPivots != 0) {
    w->key("fallbackPivots").value(record.fallbackPivots);
  }
  if (options.includeTimings) w->key("probeMicros").value(record.probeMicros);
  w->key("worst");
  ilpRecordToJson(w, record.worst, options);
  w->key("best");
  ilpRecordToJson(w, record.best, options);
  if (options.includeTimings) w->key("wallMicros").value(record.wallMicros);
  w->endObject();
}

std::string reportJson(std::string_view program,
                       const ipet::Estimate& estimate,
                       const MetricsRegistry* metrics,
                       const ReportOptions& options) {
  JsonWriter w;
  w.beginObject();
  w.key("schemaVersion").value(kReportSchemaVersion);
  w.key("program").value(program);
  w.key("bound");
  boundToJson(&w, estimate.bound);
  w.key("sound").value(estimate.sound());
  w.key("timedOut").value(estimate.timedOut);
  w.key("stats");
  statsToJson(&w, estimate.stats);
  if (!estimate.issues.empty()) {
    w.key("issues").beginArray();
    for (const ipet::SolveIssue& issue : estimate.issues) {
      w.beginObject()
          .key("set")
          .value(issue.setIndex)
          .key("code")
          .value(errorCodeStr(issue.code))
          .key("phase")
          .value(issue.phase)
          .key("detail")
          .value(issue.detail)
          .endObject();
    }
    w.endArray();
  }
  w.key("sets").beginArray();
  for (const ipet::SetSolveRecord& record : estimate.setRecords) {
    setRecordToJson(&w, record, options);
  }
  w.endArray();
  if (metrics != nullptr) {
    w.key("metrics");
    metrics->toJson(&w);
  }
  w.endObject();
  return w.str();
}

void writeReportJson(std::string_view program, const ipet::Estimate& estimate,
                     const MetricsRegistry* metrics, std::ostream& out,
                     const ReportOptions& options) {
  out << reportJson(program, estimate, metrics, options) << "\n";
}

std::string formatSolveTable(const ipet::Estimate& estimate) {
  std::ostringstream out;
  out << "per-set solve records (" << estimate.stats.constraintSets
      << " sets, " << estimate.stats.prunedNullSets << " pruned):\n";
  // Column widths are computed from the actual cell contents so wide
  // values — degradation markers ("~1,234,567") or large presolve
  // tallies — stretch their column instead of shearing the row.
  std::vector<std::vector<std::string>> grid;
  grid.push_back({"set", "cons", "probe", "verdict", "worst", "best", "LPs",
                  "nodes", "pivots", "psrows", "pscols", "us"});
  for (const ipet::SetSolveRecord& rec : estimate.setRecords) {
    const auto objective = [](const ipet::IlpSolveRecord& r) {
      if (r.degraded) return "~" + withThousands(r.fallbackBound);
      if (!r.solved) return std::string("-");
      if (!r.feasible) return std::string("infeas");
      return withThousands(r.objective);
    };
    // Skipped sets reference the representative whose solve covers them:
    // "=N" for an identical duplicate, "<N" for a dominated superset.
    std::string probe = rec.pruned ? "null" : "ok";
    if (rec.sharedWith >= 0 && !rec.pruned) {
      probe = (rec.dominated ? "<" : "=") + std::to_string(rec.sharedWith);
    }
    const int psRows =
        rec.worst.presolveRowsRemoved + rec.best.presolveRowsRemoved;
    const int psCols = rec.worst.presolveColsFixed +
                       rec.worst.presolveSubstitutions +
                       rec.best.presolveColsFixed +
                       rec.best.presolveSubstitutions;
    grid.push_back(
        {std::to_string(rec.setIndex), std::to_string(rec.userConstraints),
         probe,
         rec.pruned || rec.sharedWith >= 0
             ? "-"
             : ipet::setVerdictStr(rec.verdict),
         objective(rec.worst), objective(rec.best),
         std::to_string(rec.worst.lpCalls + rec.best.lpCalls),
         std::to_string(rec.worst.nodes + rec.best.nodes),
         std::to_string(rec.worst.pivots + rec.best.pivots),
         std::to_string(psRows), std::to_string(psCols),
         std::to_string(rec.wallMicros)});
  }
  std::vector<std::size_t> width(grid.front().size(), 0);
  for (const auto& row : grid) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  for (const auto& row : grid) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << padLeft(row[c], width[c] + (c == 0 ? 1 : 2));
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace cinderella::obs
