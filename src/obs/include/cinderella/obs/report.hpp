// Structured solve reports: the machine-readable (JSON) and
// human-readable (table) views of an Estimate's per-constraint-set solve
// records, plus an optional metrics snapshot derived from them.
//
// The JSON report is the scripting surface for benchmark trajectories
// and CI checks; its per-set records mirror ipet::SetSolveRecord
// field-for-field.  Every field is deterministic across
// SolveControl::threads values except the wall-clock timings, which
// ReportOptions::includeTimings can drop to get byte-stable output.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/solve_cache.hpp"

namespace cinderella::obs {

class JsonWriter;
class MetricsRegistry;
struct MetricsSnapshot;

struct ReportOptions {
  /// Include wall-clock µs fields.  Off => the report for a fixed
  /// program is byte-identical across runs and thread counts.
  bool includeTimings = true;
};

/// Version stamped into every report's "schemaVersion" field (and
/// echoed by cinderella-serve responses, which embed this exact report
/// object).  Bump on any incompatible change to the document layout;
/// see DESIGN.md ("Report schema") for the field-by-field contract.
/// Version 1 was the unversioned pre-serve layout; 2 added the stamp;
/// 3 added the presolve/Devex counters (stats.devexPivots,
/// stats.presolve*, and the per-ILP-record equivalents); 4 removed the
/// warm-start counters (stats.warmStarts, coldStarts, dualPivots,
/// warmFailures, installPivots, seedPivots, and the per-ILP-record
/// equivalents); 5 derives "metrics" from the set records instead of a
/// process-wide sink inside the solvers: the per-LP-call histograms
/// (lp.*), which the records cannot reproduce and whose sums already
/// sit in "stats" and "sets", and the thread pool's pool.* counters,
/// which depended on the job count, are gone, and the solve cache's
/// counters take the daemon's cache.* names.
inline constexpr int kReportSchemaVersion = 5;

// Composable pieces (used by the bench JSON emitters as well as the full
// report): each writes one JSON value at the writer's current position.
void boundToJson(JsonWriter* w, const ipet::Interval& bound);
void statsToJson(JsonWriter* w, const ipet::SolveStats& stats);
void setRecordToJson(JsonWriter* w, const ipet::SetSolveRecord& record,
                     const ReportOptions& options = {});

/// Adds `estimate`'s solver metrics to `metrics`, derived from its set
/// records: per ILP solved (a side of a set neither pruned nor shared),
/// ilp.solves +1 and one ilp.nodes, ilp.pivots and ilp.micros sample.
void addEstimateMetrics(const ipet::Estimate& estimate,
                        MetricsRegistry* metrics);

/// Sets the cache.* counters of `snapshot` from the solve cache's stats:
/// the names the daemon scrapes and the CLI report carries.
void foldCacheStats(const ipet::SolveCacheStats& stats,
                    MetricsSnapshot* snapshot);

/// The full report document:
/// {"program":...,"bound":...,"stats":...,"sets":[...],"metrics":...}.
/// `metrics` may be null (the "metrics" key is then omitted).
[[nodiscard]] std::string reportJson(std::string_view program,
                                     const ipet::Estimate& estimate,
                                     const MetricsRegistry* metrics,
                                     const ReportOptions& options = {});
void writeReportJson(std::string_view program, const ipet::Estimate& estimate,
                     const MetricsRegistry* metrics, std::ostream& out,
                     const ReportOptions& options = {});

/// Human-readable per-set solve table for --verbose-solve: one row per
/// constraint set with probe verdict, objectives, LP calls, nodes,
/// pivots and wall µs for the worst and best ILPs.
[[nodiscard]] std::string formatSolveTable(const ipet::Estimate& estimate);

}  // namespace cinderella::obs
