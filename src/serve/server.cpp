#include "cinderella/serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "cinderella/obs/log.hpp"
#include "cinderella/obs/prometheus.hpp"
#include "cinderella/obs/report.hpp"
#include "cinderella/obs/request_telemetry.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/io.hpp"

namespace cinderella::serve {

namespace {

/// Stop-flag poll tick for the blocking accept/read loops: short enough
/// that shutdown feels immediate, long enough to cost nothing.
constexpr int kPollMillis = 100;

using Clock = std::chrono::steady_clock;

std::int64_t microsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start)
      .count();
}

ipet::AnalysisServiceOptions serviceOptions(const ServerOptions& options) {
  ipet::AnalysisServiceOptions service;
  service.cache.capacity = options.cacheEntries;
  service.cache.journalPath = options.journalPath;
  service.benchmarkResolver = options.benchmarkResolver;
  return service;
}

using support::io::sendAll;

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(serviceOptions(options_)),
      pool_(options_.poolThreads),
      maxInflight_(options_.maxInflight > 0 ? options_.maxInflight
                                            : 2 * pool_.numThreads()),
      flight_(options_.flightRecorderEntries) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    if (error != nullptr) *error = "socket: " + std::string(strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listenFd_, 64) < 0) {
    if (error != nullptr) {
      *error = "bind/listen 127.0.0.1:" + std::to_string(options_.port) +
               ": " + strerror(errno);
    }
    ::close(listenFd_);
    listenFd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  if (!options_.snapshotPath.empty()) {
    // Crash recovery: restore() keeps every section of the snapshot (and
    // every journaled admission) up to the first damage, so a kill -9 at
    // any byte offset costs at most the torn suffix — never a failed
    // start, never a silently empty cache when a consistent prefix
    // exists.  The cache only ever changes performance.
    restoreReport_ = service_.cache().restore(options_.snapshotPath);
    if (!restoreReport_.complete) snapshotLoadError_ = restoreReport_.detail;
  }

  acceptThread_ = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  while (!stopping_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listenFd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    connFds_.insert(fd);
    connThreads_.emplace_back([this, fd] { handleConnection(fd); });
  }
}

void Server::handleConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  bool discarding = false;  ///< Skipping the rest of an oversized line.
  while (open && !stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = support::io::recvSome(fd, chunk, sizeof chunk);
    if (n <= 0) break;  // Peer closed (or error): connection done.
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (discarding) {
      const std::size_t eol = buffer.find('\n');
      if (eol == std::string::npos) {
        buffer.clear();
        continue;
      }
      buffer.erase(0, eol + 1);
      discarding = false;
    }
    if (buffer.size() > options_.maxRequestBytes &&
        buffer.find('\n') == std::string::npos) {
      // The line already exceeds the frame quota with no end in sight:
      // answer a typed error now and skip bytes until the newline, so
      // one oversized frame cannot kill the connection (or the heap).
      rejectedOversize_.fetch_add(1, std::memory_order_relaxed);
      errors_.fetch_add(1, std::memory_order_relaxed);
      metrics_.counter("serve.rejected_oversize").add(1);
      const WireId wireId("srv-" + std::to_string(idSeq_.fetch_add(
                                       1, std::memory_order_relaxed) +
                                   1));
      if (!sendAll(fd, encodeErrorResponse(
                           wireId, "toolarge",
                           "frame exceeds --max-request-bytes (" +
                               std::to_string(options_.maxRequestBytes) +
                               "); the line was discarded") +
                           "\n")) {
        break;
      }
      buffer.clear();
      discarding = true;
      continue;
    }
    std::size_t eol;
    while (open && (eol = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line.rfind("GET ", 0) == 0) {
        // A plain HTTP scraper (Prometheus, curl) on the NDJSON port:
        // answer the one request and close, HTTP/1.0 style.  The rest
        // of the buffer is just request headers — drop it.
        (void)sendAll(fd, handleHttpGet(line));
        open = false;
        continue;
      }
      if (line.size() > options_.maxRequestBytes) {
        // A complete line over quota (the newline arrived in the same
        // chunk that crossed the limit): same typed error, no discard
        // mode needed.
        rejectedOversize_.fetch_add(1, std::memory_order_relaxed);
        errors_.fetch_add(1, std::memory_order_relaxed);
        metrics_.counter("serve.rejected_oversize").add(1);
        const WireId wireId("srv-" + std::to_string(idSeq_.fetch_add(
                                         1, std::memory_order_relaxed) +
                                     1));
        if (!sendAll(fd, encodeErrorResponse(
                             wireId, "toolarge",
                             "frame exceeds --max-request-bytes (" +
                                 std::to_string(options_.maxRequestBytes) +
                                 "); the line was discarded") +
                             "\n")) {
          open = false;
        }
        continue;
      }
      bool shutdownAfterReply = false;
      bool drainAfterReply = false;
      bool closeAfterReply = false;
      const std::string response = handleLine(
          line, &shutdownAfterReply, &drainAfterReply, &closeAfterReply);
      if (!sendAll(fd, response + "\n")) open = false;
      if (closeAfterReply) {
        // The line was not JSON: the peer is not a protocol client.
        // The error frame is already in the socket buffer; close so
        // garbage streams cannot pin a connection thread.
        open = false;
      }
      if (drainAfterReply) {
        // The ack is already in the socket buffer; the connection stays
        // open (the client may poll health/stats while we drain).
        beginDrain();
      }
      if (shutdownAfterReply) {
        // The ack is already in the socket buffer; only now wake wait()
        // so the caller's stop() cannot tear the connection down first.
        shutdownRequested_.store(true, std::memory_order_release);
        waitCv_.notify_all();
        open = false;
      }
    }
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  std::lock_guard<std::mutex> lock(mutex_);
  connFds_.erase(fd);
}

std::string Server::handleLine(const std::string& line,
                               bool* shutdownAfterReply,
                               bool* drainAfterReply,
                               bool* closeAfterReply) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  metrics_.counter("serve.requests").add(1);
  const std::int64_t startUnixMicros = obs::Logger::nowUnixMicros();
  const Clock::time_point start = Clock::now();

  // Decode first — the request id inside the frame names everything
  // that follows (telemetry, log record, flight record, response).
  obs::RequestTelemetry telemetry;
  RequestFrame frame;
  std::string decodeError;
  bool notJson = false;
  bool decoded;
  {
    auto decodeTimer = obs::timeStage(&telemetry, obs::RequestStage::Decode);
    decoded = decodeRequest(line, &frame, &decodeError, &notJson);
  }
  if (closeAfterReply != nullptr) *closeAfterReply = notJson;
  const WireId wireId =
      frame.hasId
          ? (frame.idIsString ? WireId(frame.idText) : WireId(frame.id))
          : WireId("srv-" + std::to_string(
                                idSeq_.fetch_add(1, std::memory_order_relaxed) +
                                1));
  telemetry.setRequestId(wireId.str());
  const bool slowTracing = options_.logger != nullptr &&
                           options_.logger->enabled(obs::LogLevel::Warn) &&
                           options_.slowMillis > 0;
  if (slowTracing) telemetry.enableTracing();

  std::string response;
  AnalyzeOutcome outcome;
  if (!decoded) {
    outcome.errorCode = "parse";
    response = encodeErrorResponse(wireId, "parse", decodeError);
  } else {
    obs::Span span(options_.tracer, "request", "serve");
    span.arg("op", opName(frame.op));
    switch (frame.op) {
      case Op::Ping:
        response = encodePong(wireId);
        break;
      case Op::Stats:
        response = encodeStatsResponse(
            wireId, service_.cache().stats(), service_.cache().boundEntries(),
            counters(), metricsSnapshot().json());
        break;
      case Op::Metrics:
        response = encodeMetricsResponse(wireId, prometheusText());
        break;
      case Op::FlightRecorder:
        response = encodeFlightRecorderResponse(wireId, flight_.json());
        break;
      case Op::Health:
        response = encodeHealthResponse(
            wireId, draining_.load(std::memory_order_acquire),
            inflight_.load(std::memory_order_acquire));
        break;
      case Op::Drain:
        *drainAfterReply = true;
        response = encodeDrainAck(
            wireId, inflight_.load(std::memory_order_acquire));
        break;
      case Op::Shutdown:
        *shutdownAfterReply = true;
        response = encodeShutdownAck(wireId);
        break;
      case Op::Analyze: {
        if (draining_.load(std::memory_order_acquire)) {
          drainRejections_.fetch_add(1, std::memory_order_relaxed);
          errors_.fetch_add(1, std::memory_order_relaxed);
          metrics_.counter("serve.drain_rejections").add(1);
          outcome.errorCode = "draining";
          response = encodeErrorResponse(
              wireId, "draining",
              "daemon is draining; no new analyses accepted");
          break;
        }
        span.arg("label", frame.request.label);
        outcome = handleAnalyze(frame, wireId, &telemetry);
        response = std::move(outcome.response);
        break;
      }
      case Op::Evaluate: {
        outcome = handleEvaluate(frame, wireId);
        response = std::move(outcome.response);
        break;
      }
    }
  }

  const std::int64_t durationMicros = microsSince(start);
  const char* op = decoded ? opName(frame.op) : "?";
  const std::string label =
      !decoded ? std::string()
               : (!frame.request.label.empty() ? frame.request.label
                                               : frame.request.benchmark);
  if (!outcome.errorCode.empty()) {
    if (!decoded) errors_.fetch_add(1, std::memory_order_relaxed);
    metrics_.counter("serve.errors").add(1);
  }
  metrics_.histogram("serve.request_micros").observe(durationMicros);
  metrics_.histogram("serve.response_bytes")
      .observe(static_cast<std::int64_t>(response.size()));
  if (decoded && frame.op == Op::Analyze) {
    if (outcome.errorCode.empty()) {
      metrics_.counter(outcome.cacheHit ? "serve.cache_hits"
                                        : "serve.cache_misses")
          .add(1);
    }
    if (outcome.degradedAdmission) {
      metrics_.counter("serve.degraded_admissions").add(1);
    }
    for (int s = 0; s < obs::kRequestStageCount; ++s) {
      const auto stage = static_cast<obs::RequestStage>(s);
      const std::int64_t micros = telemetry.stageMicros(stage);
      if (micros == 0) continue;
      metrics_
          .histogram(std::string("serve.stage.") + obs::requestStageStr(stage) +
                     "_micros")
          .observe(micros);
    }
  }

  {
    RequestRecord record;
    record.requestId = wireId.str();
    record.op = op;
    record.label = label;
    record.startUnixMicros = startUnixMicros;
    record.durationMicros = durationMicros;
    record.ok = outcome.errorCode.empty();
    record.errorCode = outcome.errorCode;
    record.cacheHit = outcome.cacheHit;
    record.degradedAdmission = outcome.degradedAdmission;
    record.boundLo = outcome.boundLo;
    record.boundHi = outcome.boundHi;
    record.responseBytes = static_cast<std::int64_t>(response.size());
    for (int s = 0; s < obs::kRequestStageCount; ++s) {
      record.stageMicros[static_cast<std::size_t>(s)] =
          telemetry.stageMicros(static_cast<obs::RequestStage>(s));
    }
    flight_.record(std::move(record));
  }

  if (options_.logger != nullptr) {
    const obs::LogLevel level =
        outcome.errorCode.empty() ? obs::LogLevel::Info : obs::LogLevel::Warn;
    options_.logger->record(level, "request")
        .field("id", wireId.str())
        .field("op", op)
        .field("label", label)
        .field("ok", outcome.errorCode.empty())
        .field("code", outcome.errorCode)
        .field("cacheHit", outcome.cacheHit)
        .field("degradedAdmission", outcome.degradedAdmission)
        .field("boundLo", outcome.boundLo)
        .field("boundHi", outcome.boundHi)
        .field("bytes", static_cast<std::int64_t>(response.size()))
        .field("durationMicros", durationMicros)
        .rawField("telemetry", telemetry.json());
    if (slowTracing && durationMicros >= options_.slowMillis * 1000) {
      options_.logger->record(obs::LogLevel::Warn, "slow-request")
          .field("id", wireId.str())
          .field("op", op)
          .field("durationMicros", durationMicros)
          .field("slowMillis", options_.slowMillis)
          .rawField("telemetry", telemetry.json())
          .rawField("trace", telemetry.traceJson());
    }
  }
  return response;
}

Server::AnalyzeOutcome Server::handleAnalyze(const RequestFrame& frame,
                                             const WireId& wireId,
                                             obs::RequestTelemetry* telemetry) {
  // Overload admission: count this solve in *before* submitting so
  // simultaneous arrivals see each other.  Saturated requests still run,
  // but with a clamped deadline — the degradation ladder then guarantees
  // a sound (if loose) bound inside the clamp instead of queueing
  // unbounded work behind the storm.
  const std::int64_t inflight =
      inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (options_.maxQueuedRequests >= 0 &&
      inflight >= maxInflight_ + options_.maxQueuedRequests) {
    // The bounded queue behind the inflight cap is full: reject outright
    // with a typed, retryable error instead of piling unbounded work
    // (and memory) behind the storm.
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    waitCv_.notify_all();
    rejectedOverload_.fetch_add(1, std::memory_order_relaxed);
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics_.counter("serve.rejected_overload").add(1);
    AnalyzeOutcome rejected;
    rejected.errorCode = "overloaded";
    rejected.response = encodeErrorResponse(
        wireId, "overloaded",
        "server at capacity (" + std::to_string(inflight) +
            " analyses in flight); retry with backoff");
    return rejected;
  }
  RequestFrame admitted = frame;
  if (options_.maxRequestMemoryBytes > 0 &&
      (admitted.request.control.maxMemoryBytes == 0 ||
       admitted.request.control.maxMemoryBytes >
           options_.maxRequestMemoryBytes)) {
    admitted.request.control.maxMemoryBytes = options_.maxRequestMemoryBytes;
  }
  const bool degradedAdmission = inflight >= maxInflight_;
  if (degradedAdmission) {
    overloadAdmissions_.fetch_add(1, std::memory_order_relaxed);
    const auto clamp = std::chrono::milliseconds(options_.overloadDeadlineMs);
    auto& deadline = admitted.request.control.deadline;
    if (deadline.count() <= 0 || deadline > clamp) deadline = clamp;
  }

  struct Pending {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    AnalyzeOutcome outcome;
  };
  auto pending = std::make_shared<Pending>();
  // `telemetry` lives on the caller's stack; safe to use from the pool
  // because this function blocks on `pending->cv` until the job is done.
  pool_.submit([this, pending, wireId, telemetry,
                admitted = std::move(admitted), degradedAdmission] {
    AnalyzeOutcome outcome;
    outcome.degradedAdmission = degradedAdmission;
    try {
      const ipet::AnalysisResult result =
          service_.analyze(admitted.request, telemetry);
      outcome.cacheHit = result.cacheHit;
      outcome.boundLo = result.estimate.bound.lo;
      outcome.boundHi = result.estimate.bound.hi;
      std::string report;
      {
        auto reportTimer =
            obs::timeStage(telemetry, obs::RequestStage::Report);
        obs::ReportOptions reportOptions;
        report = obs::reportJson(result.program, result.estimate, nullptr,
                                 reportOptions);
      }
      auto encodeTimer = obs::timeStage(telemetry, obs::RequestStage::Encode);
      outcome.response = encodeAnalyzeResponse(
          wireId, result, report, degradedAdmission, telemetry->json());
    } catch (const Error& e) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      outcome.errorCode = "analysis";
      outcome.response = encodeErrorResponse(wireId, "analysis", e.what());
    } catch (const std::exception& e) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      outcome.errorCode = "internal";
      outcome.response = encodeErrorResponse(wireId, "internal", e.what());
    }
    std::lock_guard<std::mutex> lock(pending->m);
    pending->outcome = std::move(outcome);
    pending->done = true;
    pending->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(pending->m);
  pending->cv.wait(lock, [&] { return pending->done; });
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  waitCv_.notify_all();  // awaitIdle() watches this count reach zero.
  return std::move(pending->outcome);
}

Server::AnalyzeOutcome Server::handleEvaluate(const RequestFrame& frame,
                                              const WireId& wireId) {
  AnalyzeOutcome outcome;
  const std::optional<ipet::Digest> digest =
      ipet::Digest::fromHex(frame.evaluateDigest);
  if (!digest) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    outcome.errorCode = "parse";
    outcome.response = encodeErrorResponse(
        wireId, "parse", "\"digest\" is not 32 hex characters");
    return outcome;
  }
  const std::optional<ipet::CachedFormula> cached =
      service_.cache().lookupFormula(*digest);
  if (!cached) {
    metrics_.counter("serve.evaluate_misses").add(1);
    errors_.fetch_add(1, std::memory_order_relaxed);
    outcome.errorCode = "notfound";
    outcome.response = encodeErrorResponse(
        wireId, "notfound",
        "no cached formula for digest " + frame.evaluateDigest +
            " — re-run the parametric analyze to rebuild it");
    return outcome;
  }
  try {
    const ipet::WcetFormula& formula = cached->formula;
    std::vector<std::int64_t> point(formula.params.size(), 0);
    std::vector<bool> seen(formula.params.size(), false);
    for (const auto& [name, value] : frame.evaluateParams) {
      const std::optional<std::size_t> index = formula.paramIndex(name);
      if (!index) {
        throw AnalysisError("formula declares no parameter '" + name + "'");
      }
      point[*index] = value;
      seen[*index] = true;
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (!seen[i]) {
        throw AnalysisError("missing value for parameter '" +
                            formula.params[i].name + "'");
      }
    }
    const ipet::Interval bound = formula.evaluate(point);
    metrics_.counter("serve.evaluate_hits").add(1);
    outcome.cacheHit = true;
    outcome.boundLo = bound.lo;
    outcome.boundHi = bound.hi;
    outcome.response =
        encodeEvaluateResponse(wireId, bound, frame.evaluateDigest);
  } catch (const Error& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    outcome.errorCode = "analysis";
    outcome.response = encodeErrorResponse(wireId, "analysis", e.what());
  }
  return outcome;
}

std::string Server::handleHttpGet(const std::string& requestLine) {
  // "GET <path> HTTP/1.x" — /metrics and /healthz are served; everything
  // else is a 404 so a misconfigured scraper fails loudly, not silently.
  const std::size_t pathStart = requestLine.find(' ') + 1;
  const std::size_t pathEnd = requestLine.find(' ', pathStart);
  const std::string path =
      pathEnd == std::string::npos
          ? requestLine.substr(pathStart)
          : requestLine.substr(pathStart, pathEnd - pathStart);
  std::string status;
  std::string contentType;
  std::string body;
  if (path == "/metrics") {
    status = "200 OK";
    contentType = "text/plain; version=0.0.4; charset=utf-8";
    body = prometheusText();
  } else if (path == "/healthz") {
    // Readiness for load balancers and the smoke/chaos scripts: 503 the
    // moment a drain begins, so traffic shifts before the exit.
    const bool draining = draining_.load(std::memory_order_acquire);
    status = draining ? "503 Service Unavailable" : "200 OK";
    contentType = "text/plain; charset=utf-8";
    body = draining ? "draining\n" : "ready\n";
  } else {
    status = "404 Not Found";
    contentType = "text/plain; charset=utf-8";
    body = "only /metrics is served here\n";
  }
  metrics_.counter("serve.http_scrapes").add(1);
  return "HTTP/1.0 " + status + "\r\nContent-Type: " + contentType +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

obs::MetricsSnapshot Server::metricsSnapshot() const {
  obs::MetricsSnapshot snapshot = metrics_.snapshot();
  // Fold in the live server and solve-cache counters so one scrape sees
  // the whole daemon; gauges (inflight, cache occupancy) are declared as
  // such in prometheusText().
  const ServeCounters server = counters();
  snapshot.counters["serve.connections"] = server.connections;
  snapshot.counters["serve.overload_admissions"] = server.overloadAdmissions;
  snapshot.counters["serve.inflight"] = server.inflight;
  snapshot.counters["serve.rejected_oversize"] = server.rejectedOversize;
  snapshot.counters["serve.rejected_overload"] = server.rejectedOverload;
  snapshot.counters["serve.drain_rejections"] = server.drainRejections;
  snapshot.counters["serve.draining"] = server.draining ? 1 : 0;
  const ipet::SolveCacheStats cache = service_.cache().stats();
  snapshot.counters["cache.bound_hits"] = cache.boundHits;
  snapshot.counters["cache.bound_misses"] = cache.boundMisses;
  snapshot.counters["cache.formula_hits"] = cache.formulaHits;
  snapshot.counters["cache.formula_misses"] = cache.formulaMisses;
  snapshot.counters["cache.insertions"] = cache.insertions;
  snapshot.counters["cache.evictions"] = cache.evictions;
  snapshot.counters["cache.rejected_inserts"] = cache.rejectedInserts;
  snapshot.counters["cache.bound_entries"] =
      static_cast<std::int64_t>(service_.cache().boundEntries());
  snapshot.counters["cache.formula_entries"] =
      static_cast<std::int64_t>(service_.cache().formulaEntries());
  return snapshot;
}

std::string Server::prometheusText() const {
  obs::PrometheusOptions options;
  options.gauges = {"serve.inflight", "serve.draining", "cache.bound_entries",
                    "cache.formula_entries"};
  return obs::prometheusText(metricsSnapshot(), options);
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  waitCv_.wait(lock, [this] {
    return shutdownRequested_.load(std::memory_order_acquire) ||
           stopping_.load(std::memory_order_acquire) ||
           draining_.load(std::memory_order_acquire);
  });
}

bool Server::shutdownRequested() const {
  return shutdownRequested_.load(std::memory_order_acquire);
}

void Server::beginDrain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  metrics_.counter("serve.drains").add(1);
  // Shutting the listener down makes pending and future connects fail
  // immediately instead of hanging in the backlog; the accept loop also
  // observes draining_ and exits.  stop() still owns the close().
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  waitCv_.notify_all();
}

bool Server::draining() const {
  return draining_.load(std::memory_order_acquire);
}

bool Server::awaitIdle(std::int64_t timeoutMs) {
  std::unique_lock<std::mutex> lock(mutex_);
  return waitCv_.wait_for(lock, std::chrono::milliseconds(timeoutMs), [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

void Server::requestStop() {
  stopping_.store(true, std::memory_order_release);
  shutdownRequested_.store(true, std::memory_order_release);
  waitCv_.notify_all();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const int fd : connFds_) ::shutdown(fd, SHUT_RDWR);
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
}

void Server::stop() {
  requestStop();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (acceptThread_.joinable()) acceptThread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    threads.swap(connThreads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  pool_.wait();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  if (!options_.snapshotPath.empty()) {
    std::string saveError;
    if (!service_.cache().save(options_.snapshotPath, &saveError) &&
        options_.logger != nullptr) {
      options_.logger->record(obs::LogLevel::Error, "snapshot-save-failed")
          .field("path", options_.snapshotPath)
          .field("error", saveError);
    }
  }
  if (!options_.flightDumpPath.empty()) {
    std::ofstream out(options_.flightDumpPath, std::ios::trunc);
    if (out) out << flight_.json() << '\n';
  }
}

ServeCounters Server::counters() const {
  ServeCounters counters;
  counters.connections = connections_.load(std::memory_order_relaxed);
  counters.requests = requests_.load(std::memory_order_relaxed);
  counters.errors = errors_.load(std::memory_order_relaxed);
  counters.overloadAdmissions =
      overloadAdmissions_.load(std::memory_order_relaxed);
  counters.inflight = inflight_.load(std::memory_order_relaxed);
  counters.rejectedOversize = rejectedOversize_.load(std::memory_order_relaxed);
  counters.rejectedOverload = rejectedOverload_.load(std::memory_order_relaxed);
  counters.drainRejections = drainRejections_.load(std::memory_order_relaxed);
  counters.draining = draining_.load(std::memory_order_acquire);
  return counters;
}

}  // namespace cinderella::serve
