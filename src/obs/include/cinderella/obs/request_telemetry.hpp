// Request-scoped telemetry: the per-request carrier that replaces
// process-global observability state in the serving stack.
//
// One RequestTelemetry is created per protocol frame (or per CLI/replay
// analysis) and threaded *by pointer* through the layers that serve it —
// serve::Server -> ipet::AnalysisService -> Analyzer / SolveCache — so
// with N concurrent connections every stage duration, cache outcome and
// span lands on the request that incurred it, never on a neighbour.
// Nothing here is process-wide state.
//
// Contents:
//   * the request id (client-supplied or server-generated) echoed in
//     the protocol, logs and flight-recorder records;
//   * a fixed set of pipeline stage accumulators (µs), filled via RAII
//     StageTimer scopes — a stage entered twice accumulates;
//   * an optional owned Tracer, enabled when the server wants a span
//     tree for slow-request log records; when enabled it is also handed
//     to SolveControl::tracer so solver spans join the same timeline.
//
// A null RequestTelemetry* everywhere keeps the non-serving callers
// (CLI, oracle, tests) at exactly their old cost.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "cinderella/obs/trace.hpp"

namespace cinderella::obs {

class JsonWriter;

/// Pipeline stages a served request passes through, in order.  The
/// solver-internal breakdown (base-problem build, per-set probes/ILPs,
/// merge) lives one level down, in the request's Tracer spans.
enum class RequestStage {
  Decode = 0,    ///< Protocol frame parse.
  Resolve,       ///< Benchmark-name resolution.
  Frontend,      ///< MiniC lex/parse/sema/codegen (or LP-format parse).
  Cfg,           ///< Analyzer construction: CFGs, contexts, constraints.
  Digest,        ///< Content-addressed system digests.
  CacheLookup,   ///< SolveCache bound lookup.
  Solve,         ///< The estimate() call (ILP build + solves).
  CacheStore,    ///< Admission-gated SolveCache insert.
  Report,        ///< Report document serialisation.
  Encode,        ///< Response frame encoding.
};

inline constexpr int kRequestStageCount =
    static_cast<int>(RequestStage::Encode) + 1;

[[nodiscard]] const char* requestStageStr(RequestStage stage);

class RequestTelemetry {
 public:
  explicit RequestTelemetry(std::string requestId = {})
      : requestId_(std::move(requestId)) {}

  RequestTelemetry(const RequestTelemetry&) = delete;
  RequestTelemetry& operator=(const RequestTelemetry&) = delete;

  [[nodiscard]] const std::string& requestId() const { return requestId_; }
  void setRequestId(std::string id) { requestId_ = std::move(id); }

  void addStageMicros(RequestStage stage, std::int64_t micros) {
    stageMicros_[static_cast<std::size_t>(stage)] += micros;
  }
  [[nodiscard]] std::int64_t stageMicros(RequestStage stage) const {
    return stageMicros_[static_cast<std::size_t>(stage)];
  }
  /// Sum over every stage (the accounted-for part of the wall time).
  [[nodiscard]] std::int64_t totalStageMicros() const;

  /// RAII stage scope; accumulates the scope's wall µs on destruction.
  /// Safe against a null telemetry pointer, mirroring obs::Span.
  class StageTimer {
   public:
    StageTimer(RequestTelemetry* telemetry, RequestStage stage)
        : telemetry_(telemetry), stage_(stage) {
      if (telemetry_ != nullptr) {
        start_ = std::chrono::steady_clock::now();
      }
    }
    StageTimer(const StageTimer&) = delete;
    StageTimer& operator=(const StageTimer&) = delete;
    ~StageTimer() { stop(); }

    /// Records now; idempotent (the destructor then no-ops).
    void stop() {
      if (telemetry_ == nullptr) return;
      telemetry_->addStageMicros(
          stage_, std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
      telemetry_ = nullptr;
    }

   private:
    RequestTelemetry* telemetry_;
    RequestStage stage_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Creates the owned per-request tracer (idempotent).  Solver and
  /// server spans recorded against it serialise via traceJson().
  void enableTracing() {
    if (tracer_ == nullptr) tracer_ = std::make_unique<Tracer>();
  }
  /// The owned tracer, or null when tracing is off — pass this straight
  /// to SolveControl::tracer.
  [[nodiscard]] Tracer* tracer() const { return tracer_.get(); }
  /// The request's span tree as Chrome trace-event JSON ("{}" when
  /// tracing is off).
  [[nodiscard]] std::string traceJson() const;

  /// Writes {"requestId":...,"stages":{"frontend":µs,...}} — only the
  /// stages that were entered — at the writer's current position.
  void toJson(JsonWriter* w) const;
  [[nodiscard]] std::string json() const;

 private:
  std::string requestId_;
  std::array<std::int64_t, kRequestStageCount> stageMicros_{};
  std::unique_ptr<Tracer> tracer_;
};

/// Convenience: time a stage of a possibly-null telemetry.
[[nodiscard]] inline RequestTelemetry::StageTimer timeStage(
    RequestTelemetry* telemetry, RequestStage stage) {
  return RequestTelemetry::StageTimer(telemetry, stage);
}

}  // namespace cinderella::obs
