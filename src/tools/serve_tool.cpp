#include "cinderella/tools/serve_tool.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <thread>

#include "cinderella/obs/log.hpp"
#include "cinderella/obs/trace.hpp"
#include "cinderella/serve/server.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"
#include "cinderella/support/fault_injector.hpp"

namespace cinderella::tools {

namespace {

/// Crash-dump plumbing for the flight recorder.  Plain globals because
/// signal handlers cannot capture state; only one daemon runs per
/// process.  The handler is deliberately best-effort: serialising the
/// ring allocates, which is not async-signal-safe, but the process is
/// dying anyway and a truncated dump beats no dump.
serve::Server* g_crashServer = nullptr;
std::string g_crashDumpPath;

extern "C" void crashDumpHandler(int sig) {
  if (g_crashServer != nullptr && !g_crashDumpPath.empty()) {
    const std::string dump = g_crashServer->flightRecorder().json();
    const int fd =
        ::open(g_crashDumpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      (void)!::write(fd, dump.data(), dump.size());
      (void)!::write(fd, "\n", 1);
      ::close(fd);
    }
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void installCrashHandlers(serve::Server* server, const std::string& path) {
  g_crashServer = server;
  g_crashDumpPath = path;
  std::signal(SIGSEGV, crashDumpHandler);
  std::signal(SIGABRT, crashDumpHandler);
}

void uninstallCrashHandlers() {
  std::signal(SIGSEGV, SIG_DFL);
  std::signal(SIGABRT, SIG_DFL);
  g_crashServer = nullptr;
  g_crashDumpPath.clear();
}

/// Self-pipe for SIGTERM/SIGINT: the handler only write()s one byte
/// (async-signal-safe); a watcher thread reads the pipe and starts the
/// graceful drain from normal thread context, where condition variables
/// and allocation are legal.
int g_signalPipeWrite = -1;

extern "C" void drainSignalHandler(int) {
  if (g_signalPipeWrite >= 0) {
    const char byte = 'd';
    (void)!::write(g_signalPipeWrite, &byte, 1);
  }
}

constexpr const char* kServeUsage = R"(usage: cinderella-serve [options]

Runs the IPET analyzer as a persistent daemon on 127.0.0.1, speaking
newline-delimited JSON (one request object per line, one response per
line; see DESIGN.md "Serve protocol").  Repeat submissions of an
identical constraint system are answered from a content-addressed solve
cache without solving.

options:
  --port <N>                listen port (default 0 = pick an ephemeral
                            port; the chosen port is announced on stdout)
  --jobs <N>                solver pool worker threads (default 0 = one
                            per hardware thread)
  --max-inflight <N>        solves allowed to run concurrently before
                            overload admission clamps deadlines
                            (default 0 = twice the pool size); cache
                            hits are answered without a solve and never
                            count
  --overload-deadline-ms <N> deadline clamp for solves admitted under
                            overload (default 50); they degrade to sound
                            relaxation/structural bounds instead of
                            queueing
  --cache-entries <N>       solve-cache capacity per store (default 1024;
                            0 disables caching)
  --cache-snapshot <file>   restore the cache from this snapshot (plus its
                            <file>.journal of admissions) on start and
                            write it back on shutdown; writes are atomic
                            and CRC-framed, so a kill -9 at any byte
                            offset recovers to a consistent prefix
  --drain-timeout-ms <N>    budget for in-flight solves to finish once a
                            drain begins — SIGTERM, SIGINT, or an
                            {"op":"drain"} frame (default 30000); a clean
                            drain exits 5, expiry exits 6
  --max-request-bytes <N>   per-connection frame quota; longer lines get a
                            typed "toolarge" error and are discarded
                            (default 16777216)
  --max-queued <N>          solves allowed to wait beyond --max-inflight
                            before a new cache miss is rejected with a
                            typed "overloaded" error (default -1 =
                            unbounded)
  --max-request-memory-mb <N> per-request solve memory ceiling, charged
                            as each set's sparse tableau when built;
                            oversize solves degrade to sound structural
                            bounds (default 0 = none)
  --fault-rate <R>          chaos testing: inject snapshot write/fsync
                            faults with probability R in [0, 1]
                            (default 0 = off)
  --fault-seed <N>          seed for the deterministic fault stream
                            (default 1)
  --trace-out <file>        write a Chrome trace-event JSON timeline of
                            every request served, on shutdown
  --log-out <file>          structured NDJSON request log ("-" = stderr);
                            one {"event":"request",...} object per line
  --log-level <level>       debug, info (default), warn, or error
  --slow-ms <N>             requests slower than N ms additionally log a
                            "slow-request" record embedding the request's
                            span tree (default 0 = off)
  --flight-recorder <N>     flight-recorder ring capacity — the last N
                            requests, always on (default 256)
  --flight-out <file>       dump the flight recorder here on shutdown and
                            (best-effort) on SIGSEGV/SIGABRT
  --help                    show this message

Stop the daemon by sending {"op":"shutdown"} on any connection, e.g.:
  printf '{"op":"shutdown"}\n' | nc 127.0.0.1 <port>
Drain it gracefully (finish in-flight work, write the snapshot, exit 5)
with SIGTERM, SIGINT, or:
  printf '{"op":"drain"}\n' | nc 127.0.0.1 <port>
Readiness: {"op":"health"} on the socket, or GET /healthz on the same
port (200 while ready, 503 once draining).
)";

bool parseSizeArg(const char* text, long long lo, long long hi,
                  long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

bool parseServeArgs(int argc, const char* const* argv,
                    ServeToolOptions* options, std::ostream& err) {
  auto needValue = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      err << "cinderella-serve: " << flag << " needs an argument\n"
          << kServeUsage;
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long long value = 0;
    if (arg == "--help" || arg == "-h") {
      err << kServeUsage;
      return false;
    } else if (arg == "--port") {
      const char* v = needValue(i, "--port");
      if (!v || !parseSizeArg(v, 0, 65535, &value)) {
        err << "cinderella-serve: --port needs an integer in [0, 65535]\n";
        return false;
      }
      options->port = static_cast<int>(value);
    } else if (arg == "--jobs") {
      const char* v = needValue(i, "--jobs");
      if (!v || !parseSizeArg(v, 0, 1024, &value)) {
        err << "cinderella-serve: --jobs needs an integer in [0, 1024]\n";
        return false;
      }
      options->poolThreads = static_cast<int>(value);
    } else if (arg == "--max-inflight") {
      const char* v = needValue(i, "--max-inflight");
      if (!v || !parseSizeArg(v, 0, 65536, &value)) {
        err << "cinderella-serve: --max-inflight needs an integer in "
               "[0, 65536]\n";
        return false;
      }
      options->maxInflight = static_cast<int>(value);
    } else if (arg == "--overload-deadline-ms") {
      const char* v = needValue(i, "--overload-deadline-ms");
      if (!v || !parseSizeArg(v, 1, 86'400'000, &value)) {
        err << "cinderella-serve: --overload-deadline-ms needs an integer "
               "in [1, 86400000]\n";
        return false;
      }
      options->overloadDeadlineMs = value;
    } else if (arg == "--cache-entries") {
      const char* v = needValue(i, "--cache-entries");
      if (!v || !parseSizeArg(v, 0, 1 << 24, &value)) {
        err << "cinderella-serve: --cache-entries needs an integer in "
               "[0, 16777216]\n";
        return false;
      }
      options->cacheEntries = static_cast<std::size_t>(value);
    } else if (arg == "--cache-snapshot") {
      const char* v = needValue(i, "--cache-snapshot");
      if (!v) return false;
      options->snapshotPath = v;
    } else if (arg == "--drain-timeout-ms") {
      const char* v = needValue(i, "--drain-timeout-ms");
      if (!v || !parseSizeArg(v, 0, 86'400'000, &value)) {
        err << "cinderella-serve: --drain-timeout-ms needs an integer in "
               "[0, 86400000]\n";
        return false;
      }
      options->drainTimeoutMs = value;
    } else if (arg == "--max-request-bytes") {
      const char* v = needValue(i, "--max-request-bytes");
      if (!v || !parseSizeArg(v, 1024, 1LL << 32, &value)) {
        err << "cinderella-serve: --max-request-bytes needs an integer in "
               "[1024, 4294967296]\n";
        return false;
      }
      options->maxRequestBytes = static_cast<std::size_t>(value);
    } else if (arg == "--max-queued") {
      const char* v = needValue(i, "--max-queued");
      if (!v || !parseSizeArg(v, -1, 1 << 20, &value)) {
        err << "cinderella-serve: --max-queued needs an integer in "
               "[-1, 1048576]\n";
        return false;
      }
      options->maxQueuedRequests = static_cast<int>(value);
    } else if (arg == "--max-request-memory-mb") {
      const char* v = needValue(i, "--max-request-memory-mb");
      if (!v || !parseSizeArg(v, 0, 1 << 20, &value)) {
        err << "cinderella-serve: --max-request-memory-mb needs an integer "
               "in [0, 1048576]\n";
        return false;
      }
      options->maxRequestMemoryMb = static_cast<std::size_t>(value);
    } else if (arg == "--fault-rate") {
      const char* v = needValue(i, "--fault-rate");
      char* end = nullptr;
      const double rate = v != nullptr ? std::strtod(v, &end) : 0.0;
      if (!v || end == v || *end != '\0' || rate < 0.0 || rate > 1.0) {
        err << "cinderella-serve: --fault-rate needs a number in [0, 1]\n";
        return false;
      }
      options->faultRate = rate;
    } else if (arg == "--fault-seed") {
      const char* v = needValue(i, "--fault-seed");
      if (!v || !parseSizeArg(v, 0, (1LL << 62), &value)) {
        err << "cinderella-serve: --fault-seed needs a non-negative "
               "integer\n";
        return false;
      }
      options->faultSeed = static_cast<std::uint64_t>(value);
    } else if (arg == "--trace-out") {
      const char* v = needValue(i, "--trace-out");
      if (!v) return false;
      options->traceOut = v;
    } else if (arg == "--log-out") {
      const char* v = needValue(i, "--log-out");
      if (!v) return false;
      options->logOut = v;
    } else if (arg == "--log-level") {
      const char* v = needValue(i, "--log-level");
      if (!v) return false;
      if (!obs::parseLogLevel(v)) {
        err << "cinderella-serve: --log-level needs debug, info, warn or "
               "error\n";
        return false;
      }
      options->logLevel = v;
    } else if (arg == "--slow-ms") {
      const char* v = needValue(i, "--slow-ms");
      if (!v || !parseSizeArg(v, 0, 86'400'000, &value)) {
        err << "cinderella-serve: --slow-ms needs an integer in "
               "[0, 86400000]\n";
        return false;
      }
      options->slowMs = value;
    } else if (arg == "--flight-recorder") {
      const char* v = needValue(i, "--flight-recorder");
      if (!v || !parseSizeArg(v, 8, 1 << 20, &value)) {
        err << "cinderella-serve: --flight-recorder needs an integer in "
               "[8, 1048576]\n";
        return false;
      }
      options->flightEntries = static_cast<std::size_t>(value);
    } else if (arg == "--flight-out") {
      const char* v = needValue(i, "--flight-out");
      if (!v) return false;
      options->flightOut = v;
    } else {
      err << "cinderella-serve: unknown option '" << arg << "'\n"
          << kServeUsage;
      return false;
    }
  }
  return true;
}

int runServeTool(const ServeToolOptions& options, std::ostream& out,
                 std::ostream& err) {
  try {
    std::unique_ptr<obs::Tracer> tracer;
    if (!options.traceOut.empty()) tracer = std::make_unique<obs::Tracer>();

    // The structured log sink: a file, or stderr for "-".  Opened before
    // the server so a bad path fails the start, not the first request.
    std::unique_ptr<std::ofstream> logFile;
    std::unique_ptr<obs::Logger> logger;
    if (!options.logOut.empty()) {
      std::ostream* sink = &std::cerr;
      if (options.logOut != "-") {
        logFile = std::make_unique<std::ofstream>(options.logOut,
                                                  std::ios::app);
        if (!*logFile) {
          err << "cinderella-serve: cannot open log file '" << options.logOut
              << "'\n";
          return 1;
        }
        sink = logFile.get();
      }
      const auto level = obs::parseLogLevel(options.logLevel);
      logger = std::make_unique<obs::Logger>(
          sink, level.value_or(obs::LogLevel::Info));
    }

    // Chaos mode: arm the deterministic fault injector so snapshot
    // writes and fsyncs fail with the configured probability — the
    // serve-chaos CI job proves recovery still converges under it.
    std::unique_ptr<support::FaultInjector> faultInjector;
    if (options.faultRate > 0.0) {
      support::FaultPlan plan;
      plan.seed = options.faultSeed;
      plan.snapshotWriteRate = options.faultRate;
      plan.snapshotFsyncRate = options.faultRate;
      faultInjector = std::make_unique<support::FaultInjector>(plan);
    }
    support::ScopedFaultInjector scopedFaults(faultInjector.get());

    serve::ServerOptions serverOptions;
    serverOptions.port = options.port;
    serverOptions.poolThreads = options.poolThreads;
    serverOptions.maxInflight = options.maxInflight;
    serverOptions.overloadDeadlineMs = options.overloadDeadlineMs;
    serverOptions.cacheEntries = options.cacheEntries;
    serverOptions.snapshotPath = options.snapshotPath;
    if (!options.snapshotPath.empty()) {
      serverOptions.journalPath = options.snapshotPath + ".journal";
    }
    serverOptions.maxRequestBytes = options.maxRequestBytes;
    serverOptions.maxQueuedRequests = options.maxQueuedRequests;
    serverOptions.maxRequestMemoryBytes = options.maxRequestMemoryMb << 20;
    serverOptions.benchmarkResolver = suite::benchmarkResolver();
    serverOptions.tracer = tracer.get();
    serverOptions.logger = logger.get();
    serverOptions.slowMillis = options.slowMs;
    serverOptions.flightRecorderEntries = options.flightEntries;
    serverOptions.flightDumpPath = options.flightOut;

    serve::Server server(std::move(serverOptions));
    if (!options.flightOut.empty()) {
      installCrashHandlers(&server, options.flightOut);
    }
    std::string startError;
    if (!server.start(&startError)) {
      uninstallCrashHandlers();
      err << "cinderella-serve: " << startError << "\n";
      return 1;
    }
    if (!server.snapshotLoadError().empty()) {
      err << "cinderella-serve: snapshot damage recovered: "
          << server.snapshotLoadError() << "\n";
    }
    if (!options.snapshotPath.empty()) {
      const ipet::SnapshotRestoreReport& restore = server.restoreReport();
      out << "cinderella-serve: cache restore: " << restore.bounds
          << " bounds, " << restore.formulas
          << " formulas, " << restore.journalRecords << " journaled\n";
    }
    out << "cinderella-serve: listening on 127.0.0.1:" << server.port()
        << "\n";
    out.flush();

    // SIGTERM/SIGINT start a graceful drain via the self-pipe watcher.
    int signalPipe[2] = {-1, -1};
    if (::pipe(signalPipe) != 0) {
      uninstallCrashHandlers();
      err << "cinderella-serve: pipe: " << strerror(errno) << "\n";
      return 4;
    }
    g_signalPipeWrite = signalPipe[1];
    std::signal(SIGTERM, drainSignalHandler);
    std::signal(SIGINT, drainSignalHandler);
    std::thread signalWatcher([&server, readFd = signalPipe[0]] {
      char byte = 0;
      while (true) {
        const ssize_t n = ::read(readFd, &byte, 1);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0 || byte == 'q') return;
        server.beginDrain();
      }
    });

    server.wait();
    int exitCode = 0;
    bool drainTimedOut = false;
    if (server.draining() && !server.shutdownRequested()) {
      // Graceful drain: the listener is already closed and new analyses
      // are being rejected; give in-flight work its budget to finish.
      const bool idle = server.awaitIdle(options.drainTimeoutMs);
      drainTimedOut = !idle;
      exitCode = idle ? 5 : 6;
    }

    // Retire the watcher before stop() so a late signal cannot race the
    // server teardown; any drain it would have started is moot now.
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_signalPipeWrite = -1;
    {
      const char quit = 'q';
      (void)!::write(signalPipe[1], &quit, 1);
    }
    signalWatcher.join();
    ::close(signalPipe[0]);
    ::close(signalPipe[1]);

    server.stop();
    uninstallCrashHandlers();
    if (drainTimedOut) {
      err << "cinderella-serve: drain timeout of " << options.drainTimeoutMs
          << " ms expired with work still in flight\n";
    } else if (exitCode == 5) {
      out << "cinderella-serve: drained cleanly\n";
    }

    const serve::ServeCounters counters = server.counters();
    const ipet::SolveCacheStats cache = server.service().cache().stats();
    const std::int64_t lookups = cache.boundHits + cache.boundMisses;
    out << "cinderella-serve: served " << counters.requests << " request(s) on "
        << counters.connections << " connection(s); cache " << cache.boundHits
        << "/" << lookups << " bound hit(s), " << counters.overloadAdmissions
        << " overload admission(s)\n";

    if (tracer != nullptr) {
      std::ofstream traceFile(options.traceOut);
      if (!traceFile) {
        err << "cinderella-serve: cannot write trace to '" << options.traceOut
            << "'\n";
        return 1;
      }
      tracer->writeChromeTrace(traceFile);
    }
    return exitCode;
  } catch (const Error& e) {
    err << "cinderella-serve: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "cinderella-serve: internal error: " << e.what() << "\n";
    return 4;
  }
}

}  // namespace cinderella::tools
