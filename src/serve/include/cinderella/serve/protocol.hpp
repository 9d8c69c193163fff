// The cinderella-serve wire protocol: newline-delimited JSON frames over
// a stream socket, one request object per line in, one response object
// per line out, in request order per connection.
//
// Request frame (all fields but "op" optional; defaults in brackets):
//   {"op":"analyze",            // or "ping" | "stats" | "metrics"
//                               //    | "flightrecorder" | "health"
//                               //    | "drain" | "shutdown"
//    "id":7,                    // integer or string, echoed verbatim in
//                               // the response; omitted => the server
//                               // assigns "srv-<seq>" and echoes that
//    "source":"...",            // MiniC text — or LP format when "lp"
//    "benchmark":"piksrt",      // built-in benchmark instead of source
//    "lp":false,                // "source" is LP-format systems
//    "root":"main",             // root function ["main"/benchmark root]
//    "label":"...",             // report label [benchmark / "<source>"]
//    "constraints":[{"text":"x5 <= 10","scope":""}, ...],
//    "params":[{"name":"N","lo":1,"hi":8}, ...],  // parametric mode:
//                               // "@N" in the constraints stays symbolic
//                               // and the response carries a "formula"
//    "cache":"allmiss",         // analyzer cache mode (allmiss|firstiter|ccg)
//    "cachePolicy":"readwrite", // solve-cache use (readwrite|readonly|bypass)
//    "jobs":1,                  // solve worker threads [1]
//    "deadlineMs":0,            // solve deadline [none]
//    "maxNodes":0,              // branch-and-bound node cap [solver default]
//    "maxMemoryMb":0}           // per-request solve memory ceiling [none;
//                               // the server may clamp it further]
//   (a "warmStart" field from older clients is accepted and ignored)
//
// Analyze response frame:
//   {"id":7,"ok":true,"protocolVersion":4,
//    "cacheHit":false,          // bound served from the solve cache
//    "degradedAdmission":false, // overload clamped the deadline
//    "digest":"<32 hex>","structuralDigest":"<32 hex>",  // omitted
//                               // when no cache was read (cachePolicy
//                               // bypass, or a cache-less daemon) —
//                               // parametric requests always carry them
//    "wallMicros":N,"solveMicros":N,
//    "telemetry":{"requestId":"...","stages":{"frontend":µs,...}},
//    "formula":{...},           // parametric requests only: the
//                               // WcetFormula JSON document
//    "report":{...}}            // the obs::reportJson document, embedded
//                               // verbatim (schemaVersion inside it)
//
// Evaluate request — prices a cached parametric formula at one concrete
// parameter assignment without ever touching the solver:
//   {"op":"evaluate","id":8,
//    "digest":"<32 hex>",       // the parametric digest an analyze
//                               // response reported for the system
//    "params":{"N":5, ...}}     // one integer per declared parameter
// Response: {"id":8,"ok":true,"protocolVersion":4,
//            "digest":"<32 hex>","bound":{"lo":L,"hi":H}}.
// A digest with no cached formula answers code "notfound" (re-run the
// analyze to rebuild it); an assignment outside the declared box or
// missing a parameter answers code "analysis".
//
// "stats" returns cache/server counters plus a "metrics" object — every
// registered counter and histogram with derived p50/p90/p99.
// "metrics" returns the same registry rendered as Prometheus text
// exposition format 0.0.4 in a "prometheus" string (the daemon also
// answers a raw HTTP "GET /metrics" on the same port for standard
// scrapers).  "flightrecorder" returns the in-memory ring of the last N
// requests with per-stage timings (see flight_recorder.hpp).
//
// "health" reports readiness: {"id":9,"ok":true,"status":"ready",
// "draining":false,"inflight":N} — "draining" once a drain began (the
// daemon also answers "GET /healthz" with 200 when ready, 503 while
// draining).  "drain" starts a graceful shutdown: the listener stops
// accepting, in-flight analyses finish (bounded by the daemon's
// --drain-timeout-ms), the cache snapshot and flight recorder flush,
// and the process exits with a drain-specific code; the ack is
// {"id":10,"ok":true,"draining":true,"inflight":N}.
//
// Error response: {"id":7,"ok":false,"code":"analysis","error":"..."}.
// Codes: "parse" (bad frame), "analysis" (Error from the analyzer),
// "toolarge" (frame exceeded the server's --max-request-bytes; the
// oversized line is discarded and the connection survives),
// "overloaded" (the inflight cap plus bounded queue is full — retry
// with backoff), "draining" (the daemon is draining and accepts no new
// analyses), "notfound" (evaluate digest unknown), "internal" (anything
// else).  The connection survives request errors; only transport-level
// garbage (a line that is not JSON) also gets an error frame, then the
// connection closes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cinderella/ipet/analysis.hpp"
#include "cinderella/ipet/solve_cache.hpp"
#include "cinderella/obs/json_parse.hpp"

namespace cinderella::serve {

inline constexpr int kProtocolVersion = 4;

enum class Op {
  Analyze,
  Evaluate,
  Ping,
  Stats,
  Metrics,
  FlightRecorder,
  Health,
  Drain,
  Shutdown,
};

struct RequestFrame {
  /// Numeric id (the classic form; valid when !idIsString).
  std::int64_t id = 0;
  /// String id, set when the client sent "id":"...".
  std::string idText;
  bool idIsString = false;
  /// False when the frame carried no "id" at all — the server then
  /// assigns a "srv-<seq>" id and echoes it as a string.
  bool hasId = true;
  Op op = Op::Analyze;
  ipet::AnalysisRequest request;
  /// Evaluate op only: the parametric digest (32 hex chars) naming the
  /// cached formula, and the concrete assignment to price it at.
  std::string evaluateDigest;
  std::vector<std::pair<std::string, std::int64_t>> evaluateParams;
};

/// A response id on the wire: echoed as an integer or as a string,
/// matching what the request sent.  Implicitly constructible from both
/// so pre-v2 call sites keep compiling.
struct WireId {
  std::int64_t num = 0;
  std::string text;
  bool isString = false;

  WireId(std::int64_t n) : num(n) {}  // NOLINT(google-explicit-constructor)
  WireId(int n) : num(n) {}           // NOLINT(google-explicit-constructor)
  WireId(std::string t)               // NOLINT(google-explicit-constructor)
      : text(std::move(t)), isString(true) {}
  WireId(std::string_view t)          // NOLINT(google-explicit-constructor)
      : text(t), isString(true) {}
  WireId(const char* t)               // NOLINT(google-explicit-constructor)
      : text(t), isString(true) {}

  /// Canonical string form (numeric ids render as decimal) — what logs,
  /// flight records and telemetry carry.
  [[nodiscard]] std::string str() const {
    return isString ? text : std::to_string(num);
  }
};

/// Server-level counters reported by the "stats" op (alongside the
/// SolveCacheStats).
struct ServeCounters {
  std::int64_t connections = 0;
  std::int64_t requests = 0;
  std::int64_t errors = 0;
  /// Requests admitted under overload with a clamped deadline.
  std::int64_t overloadAdmissions = 0;
  std::int64_t inflight = 0;
  /// Frames rejected for exceeding --max-request-bytes.
  std::int64_t rejectedOversize = 0;
  /// Analyses rejected because the inflight cap + bounded queue was full.
  std::int64_t rejectedOverload = 0;
  /// Analyses rejected because the daemon was draining.
  std::int64_t drainRejections = 0;
  /// True once a drain began (health reports "draining").
  bool draining = false;
};

/// Client-side view of one response line.  `raw` keeps the full parsed
/// frame (the report document is `raw.find("report")`, stats fields live
/// under "cache"/"server"); the named fields are the common envelope.
struct Response {
  std::int64_t id = 0;
  /// The echoed id in canonical string form (numeric ids as decimal —
  /// always set, including for server-generated "srv-<seq>" ids).
  std::string requestId;
  bool ok = false;
  std::string errorCode;
  std::string error;
  bool cacheHit = false;
  bool degradedAdmission = false;
  std::int64_t wallMicros = 0;
  std::int64_t solveMicros = 0;
  std::string digest;
  std::string structuralDigest;
  /// The answered bound: from the embedded report (analyze responses)
  /// or the top-level "bound" object (evaluate responses).
  std::int64_t boundLo = 0;
  std::int64_t boundHi = 0;
  bool sound = false;
  bool timedOut = false;
  obs::JsonValue raw;
  /// The exact response line as received (no trailing newline) — set by
  /// Client::call, empty when decoded from elsewhere.  Lets tools dump
  /// an envelope (metrics text, flight-recorder records) verbatim.
  std::string rawText;
};

/// Wire name of an op ("analyze", "metrics", ...).
[[nodiscard]] const char* opName(Op op);

// --- Request frames (client encodes, server decodes). ---
[[nodiscard]] std::string encodeRequest(const RequestFrame& frame);
/// Parses one request line.  Returns false with a diagnostic for
/// non-JSON input, an unknown op, or invalid field values; unknown keys
/// are ignored (forward compatibility).  `notJson`, when non-null, is
/// set when the line was not a JSON object at all — the server closes
/// such connections after the error frame (transport-level garbage),
/// while request-level failures keep the connection open.
[[nodiscard]] bool decodeRequest(std::string_view line, RequestFrame* out,
                                 std::string* error,
                                 bool* notJson = nullptr);

// --- Response frames (server encodes, client decodes). ---
/// `report` must be a complete JSON object (obs::reportJson output); it
/// is embedded verbatim.  `telemetry`, when non-empty, must likewise be
/// a complete JSON object (obs::RequestTelemetry::json()).
[[nodiscard]] std::string encodeAnalyzeResponse(
    const WireId& id, const ipet::AnalysisResult& result,
    std::string_view report, bool degradedAdmission,
    std::string_view telemetry = {});
/// Evaluate response: the formula's value at the requested point.
/// `digest` is the parametric digest the lookup keyed on (echoed back).
[[nodiscard]] std::string encodeEvaluateResponse(const WireId& id,
                                                 const ipet::Interval& bound,
                                                 std::string_view digest);
[[nodiscard]] std::string encodeErrorResponse(const WireId& id,
                                              std::string_view code,
                                              std::string_view message);
[[nodiscard]] std::string encodePong(const WireId& id);
/// `metricsJson`, when non-empty, must be a complete JSON object (an
/// obs::MetricsSnapshot document) and is embedded as "metrics".
[[nodiscard]] std::string encodeStatsResponse(
    const WireId& id, const ipet::SolveCacheStats& cache,
    std::size_t boundEntries, const ServeCounters& server, std::string_view metricsJson = {});
/// `prometheus` is the text-exposition body (obs::prometheusText).
[[nodiscard]] std::string encodeMetricsResponse(const WireId& id,
                                                std::string_view prometheus);
/// `flightJson` must be a complete JSON object (FlightRecorder::json()).
[[nodiscard]] std::string encodeFlightRecorderResponse(
    const WireId& id, std::string_view flightJson);
[[nodiscard]] std::string encodeShutdownAck(const WireId& id);
/// Health response: status "ready" or "draining" plus the live inflight
/// count — the NDJSON twin of "GET /healthz".
[[nodiscard]] std::string encodeHealthResponse(const WireId& id,
                                               bool draining,
                                               std::int64_t inflight);
/// Drain ack: the daemon stopped accepting and will exit once in-flight
/// work finishes (or its drain timeout expires).
[[nodiscard]] std::string encodeDrainAck(const WireId& id,
                                         std::int64_t inflight);

/// Parses one response line into the envelope + raw document.  Returns
/// nullopt with a diagnostic when the line is not a JSON object.
[[nodiscard]] std::optional<Response> decodeResponse(std::string_view line,
                                                     std::string* error);

}  // namespace cinderella::serve
