// cinderella-serve: the analyzer as a persistent daemon.
//
// One Server owns one AnalysisService (and therefore one persistent
// content-addressed SolveCache) plus one work-stealing thread pool, and
// listens on a loopback TCP socket speaking the newline-delimited JSON
// protocol of protocol.hpp.  Each connection gets a reader thread that
// decodes frames and answers them in order; the solves themselves are
// multiplexed onto the shared pool, so N cheap connections do not need N
// solver threads and one expensive request cannot starve the listener.
//
// Overload is admission-controlled through the degradation ladder
// rather than queued: when more than `maxInflight` solves are already
// running, an arriving request is still served, but with its deadline
// clamped to `overloadDeadlineMs` — the PR-4 ladder then degrades
// whatever cannot finish in time to a sound relaxation/structural
// bound, and the response carries "degradedAdmission":true.  Cache hits
// are unaffected (they skip the solve entirely), which is what makes a
// warmed-up daemon robust to repeat-heavy request storms.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cinderella/ipet/analysis.hpp"
#include "cinderella/obs/metrics.hpp"
#include "cinderella/serve/flight_recorder.hpp"
#include "cinderella/serve/protocol.hpp"
#include "cinderella/support/thread_pool.hpp"

namespace cinderella::obs {
class Logger;
class RequestTelemetry;
class Tracer;
}  // namespace cinderella::obs

namespace cinderella::serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = pick an ephemeral port (see port()).
  int port = 0;
  /// Solver pool workers; 0 = one per hardware thread.
  int poolThreads = 0;
  /// Solves allowed to run concurrently before overload admission kicks
  /// in; 0 = twice the pool size.
  int maxInflight = 0;
  /// Deadline clamp for requests admitted under overload.
  std::int64_t overloadDeadlineMs = 50;
  /// Solve-cache capacity (entries per store); 0 disables caching.
  std::size_t cacheEntries = 1024;
  /// When non-empty: restore the cache from this snapshot on start()
  /// (best-effort; see snapshotLoadError()) and write it back on stop().
  std::string snapshotPath;
  /// When non-empty: journal every cache admission here (fsync'd), so a
  /// kill -9 between snapshots loses nothing; restored on start() on
  /// top of the snapshot, reset by every successful snapshot save.
  std::string journalPath;
  /// Per-connection frame-size limit: a request line longer than this
  /// is answered with a typed "toolarge" error and discarded — the
  /// connection survives.
  std::size_t maxRequestBytes = 16u << 20;
  /// Analyses allowed to wait beyond maxInflight before new arrivals
  /// are rejected outright with "overloaded"; -1 = unbounded (degraded
  /// admission only, the pre-quota behavior).
  int maxQueuedRequests = -1;
  /// Per-request solve memory ceiling (bytes) clamped onto every
  /// admitted analyze (SolveControl::maxMemoryBytes); 0 = none.  A
  /// request already asking for less keeps its own ceiling.
  std::size_t maxRequestMemoryBytes = 0;
  /// Benchmark-name resolution for {"benchmark":...} requests.
  ipet::ProgramResolver benchmarkResolver;
  /// Optional tracer: one "request" span per frame served.
  obs::Tracer* tracer = nullptr;
  /// Optional structured log sink: one "request" NDJSON record per frame
  /// (cinderella-serve --log-out).  Must outlive the server.
  obs::Logger* logger = nullptr;
  /// Requests slower than this additionally emit a "slow-request" record
  /// embedding the request's span tree; 0 disables.  Per-request tracing
  /// is only armed when both a logger and a slow threshold are set, so
  /// the fast path never pays for span bookkeeping.
  std::int64_t slowMillis = 0;
  /// Flight-recorder ring capacity (requests); always on.
  std::size_t flightRecorderEntries = 256;
  /// When non-empty: stop() writes FlightRecorder::json() here, so a
  /// shutdown always leaves a post-mortem trail next to the snapshot.
  std::string flightDumpPath;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  /// Stops and joins everything (equivalent to stop()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1, starts the accept loop, loads the snapshot if
  /// configured.  Returns false with a diagnostic when the socket
  /// cannot be set up.
  [[nodiscard]] bool start(std::string* error);

  /// The bound port (after start()); useful with options.port == 0.
  [[nodiscard]] int port() const { return port_; }

  /// Blocks until stop() is called, a client sends {"op":"shutdown"},
  /// or a drain begins.  Returns without stopping — the caller decides
  /// to stop() (typically after awaitIdle() when draining()).
  void wait();

  /// True once a client requested shutdown (or stop() began).
  [[nodiscard]] bool shutdownRequested() const;

  /// Begins a graceful drain: the listener stops accepting connections,
  /// new analyses are rejected with a typed "draining" error, health
  /// flips to "draining", and wait() wakes.  In-flight analyses keep
  /// running — awaitIdle() then stop() complete the shutdown.
  /// Idempotent; triggered by the "drain" op and by SIGTERM/SIGINT in
  /// the daemon driver.
  void beginDrain();

  /// True once a drain began.
  [[nodiscard]] bool draining() const;

  /// Blocks until no analyses are in flight, up to `timeoutMs`.
  /// Returns true when idle (a clean drain), false on timeout.
  [[nodiscard]] bool awaitIdle(std::int64_t timeoutMs);

  /// Stops accepting, closes every connection, joins all threads, and
  /// writes the cache snapshot if configured.  Idempotent.
  void stop();

  [[nodiscard]] ServeCounters counters() const;
  [[nodiscard]] ipet::AnalysisService& service() { return service_; }
  /// The serving metrics registry (counters + latency histograms).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// The always-on ring of the last N served requests.
  [[nodiscard]] const FlightRecorder& flightRecorder() const {
    return flight_;
  }
  /// Registry snapshot merged with the live server/cache counters —
  /// what the stats op, the metrics op and the HTTP scrape all render.
  [[nodiscard]] obs::MetricsSnapshot metricsSnapshot() const;
  /// The merged snapshot as Prometheus text exposition format 0.0.4.
  [[nodiscard]] std::string prometheusText() const;

  /// Diagnostic from a damaged best-effort snapshot restore in start()
  /// (empty when none was configured, the files were absent, or they
  /// recovered cleanly); the server starts with whatever consistent
  /// prefix was recovered either way.
  [[nodiscard]] const std::string& snapshotLoadError() const {
    return snapshotLoadError_;
  }

  /// What start()'s snapshot + journal recovery restored.
  [[nodiscard]] const ipet::SnapshotRestoreReport& restoreReport() const {
    return restoreReport_;
  }

 private:
  /// What handleAnalyze hands back up for logging / metrics / the
  /// flight record, alongside the encoded response line.
  struct AnalyzeOutcome {
    std::string response;
    std::string errorCode;  ///< Empty on success.
    bool degradedAdmission = false;
    bool cacheHit = false;
    std::int64_t boundLo = 0;
    std::int64_t boundHi = 0;
  };

  void acceptLoop();
  void handleConnection(int fd);
  /// Decodes and serves one frame; returns the response line (without
  /// the trailing newline).  Sets `*shutdownAfterReply` for a shutdown
  /// frame and `*drainAfterReply` for a drain frame — the connection
  /// loop acts only after the ack is sent, so the client always sees it.
  /// Sets `*closeAfterReply` when the line was not JSON at all: the
  /// peer is not speaking the protocol, so the connection closes after
  /// the error frame (request-level errors keep it open).
  [[nodiscard]] std::string handleLine(const std::string& line,
                                       bool* shutdownAfterReply,
                                       bool* drainAfterReply,
                                       bool* closeAfterReply);
  [[nodiscard]] AnalyzeOutcome handleAnalyze(const RequestFrame& frame,
                                             const WireId& wireId,
                                             obs::RequestTelemetry* telemetry);
  /// Prices a cached parametric formula at one concrete assignment —
  /// pure cache arithmetic, so it runs inline on the connection thread
  /// and never occupies a solver-pool slot.
  [[nodiscard]] AnalyzeOutcome handleEvaluate(const RequestFrame& frame,
                                              const WireId& wireId);
  /// Serves a raw "GET <path> HTTP/1.x" request line (the Prometheus
  /// scrape path); returns the complete HTTP response.
  [[nodiscard]] std::string handleHttpGet(const std::string& requestLine);
  void requestStop();

  ServerOptions options_;
  ipet::AnalysisService service_;
  support::ThreadPool pool_;
  int maxInflight_;
  obs::MetricsRegistry metrics_;
  FlightRecorder flight_;
  std::atomic<std::uint64_t> idSeq_{0};  ///< For server-generated ids.

  int listenFd_ = -1;
  int port_ = 0;
  std::thread acceptThread_;
  std::string snapshotLoadError_;
  ipet::SnapshotRestoreReport restoreReport_;

  mutable std::mutex mutex_;  ///< Guards connThreads_/connFds_.
  std::vector<std::thread> connThreads_;
  std::set<int> connFds_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdownRequested_{false};
  bool stopped_ = false;  ///< stop() ran to completion (guarded by mutex_).
  std::condition_variable waitCv_;

  std::atomic<std::int64_t> connections_{0};
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> errors_{0};
  std::atomic<std::int64_t> overloadAdmissions_{0};
  std::atomic<std::int64_t> inflight_{0};
  std::atomic<std::int64_t> rejectedOversize_{0};
  std::atomic<std::int64_t> rejectedOverload_{0};
  std::atomic<std::int64_t> drainRejections_{0};
};

}  // namespace cinderella::serve
