// Structured solve reports: the machine-readable (JSON) and
// human-readable (table) views of an Estimate's per-constraint-set solve
// records, plus an optional metrics snapshot.
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

namespace cinderella::obs {

class JsonWriter;
class MetricsRegistry;

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
/// equivalents).
inline constexpr int kReportSchemaVersion = 4;

// Composable pieces (used by the bench JSON emitters as well as the full
// report): each writes one JSON value at the writer's current position.
void boundToJson(JsonWriter* w, const ipet::Interval& bound);
void statsToJson(JsonWriter* w, const ipet::SolveStats& stats);
void setRecordToJson(JsonWriter* w, const ipet::SetSolveRecord& record,
                     const ReportOptions& options = {});

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
