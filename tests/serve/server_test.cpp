// End-to-end daemon tests over real loopback sockets: request/response
// flow, cache hits across connections, warm vs cold bit-identity for
// the three analyzer cache modes, concurrent clients on the shared
// pool, snapshot persistence across daemon restarts, overload
// admission, the shutdown handshake, joining the threads of closed
// connections, the request memo's replies and counters, and cache hits
// answered without a solver thread.  Named ServeDaemon* so the CI
// ThreadSanitizer job can select them.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cinderella/obs/prometheus.hpp"
#include "cinderella/serve/client.hpp"
#include "cinderella/serve/server.hpp"
#include "cinderella/suite/suite.hpp"
#include "test_util/temp_path.hpp"

namespace cinderella::serve {
namespace {

constexpr const char* kFig2 =
    "int q;\nint r;\n"
    "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }";

// A loop program: the three cache modes induce distinct ILPs here, so
// each mode gets its own content address (fig2 is loop-free and would
// deliberately share one entry across modes).
constexpr const char* kLoop =
    "int acc;\n"
    "void f() {\n"
    "  int i;\n"
    "  for (i = 0; i < 8; i = i + 1) { __loopbound(8, 8); acc = acc + i; }\n"
    "}";

ipet::AnalysisRequest fig2Request() {
  ipet::AnalysisRequest request;
  request.label = "fig2";
  request.source = kFig2;
  request.root = "f";
  return request;
}

ServerOptions basicOptions() {
  ServerOptions options;
  options.poolThreads = 2;
  options.benchmarkResolver = suite::benchmarkResolver();
  return options;
}

struct RunningServer {
  explicit RunningServer(ServerOptions options = basicOptions())
      : server(std::move(options)) {
    std::string error;
    EXPECT_TRUE(server.start(&error)) << error;
  }
  ~RunningServer() { server.stop(); }
  Server server;
};

TEST(ServeDaemon, AnalyzePingStatsRoundTrip) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;

  const auto pong = client.ping(&error);
  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_TRUE(pong->ok);

  const auto response = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_TRUE(response->ok);
  EXPECT_FALSE(response->cacheHit);
  EXPECT_TRUE(response->sound);
  EXPECT_GT(response->boundHi, 0);
  EXPECT_GE(response->boundHi, response->boundLo);
  EXPECT_EQ(response->digest.size(), 32u);

  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  const obs::JsonValue* server = stats->raw.find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->intOr("requests", 0), 2);
}

TEST(ServeDaemon, RepeatSubmissionHitsCacheAcrossConnections) {
  RunningServer running;
  std::string error;
  std::int64_t coldHi = 0;
  {
    Client first;
    ASSERT_TRUE(first.connect(running.server.port(), &error)) << error;
    const auto cold = first.analyze(fig2Request(), &error);
    ASSERT_TRUE(cold.has_value()) << error;
    ASSERT_TRUE(cold->ok) << cold->error;
    EXPECT_FALSE(cold->cacheHit);
    coldHi = cold->boundHi;
    first.close();
  }
  // A brand-new connection: the cache is per-daemon, not per-client.
  Client second;
  ASSERT_TRUE(second.connect(running.server.port(), &error)) << error;
  const auto warm = second.analyze(fig2Request(), &error);
  ASSERT_TRUE(warm.has_value()) << error;
  ASSERT_TRUE(warm->ok) << warm->error;
  EXPECT_TRUE(warm->cacheHit);
  EXPECT_EQ(warm->boundHi, coldHi);
}

TEST(ServeDaemon, WarmCacheMatchesColdForEveryCacheMode) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;

  for (const char* mode : {"allmiss", "firstiter", "ccg"}) {
    ipet::AnalysisRequest request;
    request.label = "loop";
    request.source = kLoop;
    request.root = "f";
    request.cacheMode = *ipet::parseCacheMode(mode);
    const auto cold = client.analyze(request, &error);
    ASSERT_TRUE(cold.has_value() && cold->ok) << mode << ": " << error;
    EXPECT_FALSE(cold->cacheHit) << mode;
    const auto warm = client.analyze(request, &error);
    ASSERT_TRUE(warm.has_value() && warm->ok) << mode << ": " << error;
    EXPECT_TRUE(warm->cacheHit) << mode;
    EXPECT_EQ(warm->boundLo, cold->boundLo) << mode;
    EXPECT_EQ(warm->boundHi, cold->boundHi) << mode;
  }
}

TEST(ServeDaemon, BenchmarkRequestsResolveThroughTheSuite) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;

  ipet::AnalysisRequest request;
  request.benchmark = "piksrt";
  const auto response = client.analyze(request, &error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_TRUE(response->ok) << response->error;
  EXPECT_GT(response->boundHi, response->boundLo);

  ipet::AnalysisRequest unknown;
  unknown.benchmark = "nonesuch";
  const auto rejected = client.analyze(unknown, &error);
  ASSERT_TRUE(rejected.has_value()) << error;
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(rejected->errorCode, "analysis");
  // The connection survived the request error.
  const auto pong = client.ping(&error);
  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_TRUE(pong->ok);
}

TEST(ServeDaemon, ParametricAnalyzeThenEvaluatePricesWithoutASolve) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;

  // `x0 <= 3 * @P` is redundant for P in [1, 3] (the root entry block
  // runs once), so the formula prices every point to the direct bound.
  ipet::AnalysisRequest request;
  request.label = "ploop";
  request.source = kLoop;
  request.root = "f";
  request.constraints.push_back({"x0 <= 3 * @P", ""});
  request.parameters = {{"P", 1, 3}};
  const auto analyzed = client.analyze(request, &error);
  ASSERT_TRUE(analyzed.has_value()) << error;
  ASSERT_TRUE(analyzed->ok) << analyzed->error;
  ASSERT_EQ(analyzed->digest.size(), 32u);
  const obs::JsonValue* formula = analyzed->raw.find("formula");
  ASSERT_NE(formula, nullptr);
  EXPECT_TRUE(formula->isObject());
  ASSERT_NE(formula->find("pieces"), nullptr);

  // Price the cached formula at each declared point: no solver runs,
  // and the redundant constraint makes every point equal the hull the
  // analyze response reported.
  for (std::int64_t p = 1; p <= 3; ++p) {
    const auto priced = client.evaluate(analyzed->digest, {{"P", p}}, &error);
    ASSERT_TRUE(priced.has_value()) << error;
    ASSERT_TRUE(priced->ok) << priced->error;
    EXPECT_EQ(priced->digest, analyzed->digest);
    EXPECT_EQ(priced->boundLo, analyzed->boundLo) << "P = " << p;
    EXPECT_EQ(priced->boundHi, analyzed->boundHi) << "P = " << p;
  }

  // A re-analyze of the identical parametric request is a formula-cache
  // hit carrying the same digest.
  const auto warm = client.analyze(request, &error);
  ASSERT_TRUE(warm.has_value()) << error;
  ASSERT_TRUE(warm->ok) << warm->error;
  EXPECT_TRUE(warm->cacheHit);
  EXPECT_EQ(warm->digest, analyzed->digest);
}

TEST(ServeDaemon, EvaluateErrorPathsAreTyped) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;

  // Malformed digest: rejected at the protocol layer.
  const auto malformed = client.evaluate("zz", {{"P", 1}}, &error);
  ASSERT_TRUE(malformed.has_value()) << error;
  EXPECT_FALSE(malformed->ok);
  EXPECT_EQ(malformed->errorCode, "parse");

  // Well-formed digest with no cached formula behind it.
  const std::string unknown(32, 'a');
  const auto missing = client.evaluate(unknown, {{"P", 1}}, &error);
  ASSERT_TRUE(missing.has_value()) << error;
  EXPECT_FALSE(missing->ok);
  EXPECT_EQ(missing->errorCode, "notfound");

  // Cache a formula, then price it with the wrong parameter name and an
  // out-of-range value: both are analysis errors, not protocol errors.
  ipet::AnalysisRequest request;
  request.source = kLoop;
  request.root = "f";
  request.constraints.push_back({"x0 <= 3 * @P", ""});
  request.parameters = {{"P", 1, 3}};
  const auto analyzed = client.analyze(request, &error);
  ASSERT_TRUE(analyzed.has_value()) << error;
  ASSERT_TRUE(analyzed->ok) << analyzed->error;

  const auto wrongName = client.evaluate(analyzed->digest, {{"Q", 1}}, &error);
  ASSERT_TRUE(wrongName.has_value()) << error;
  EXPECT_FALSE(wrongName->ok);
  EXPECT_EQ(wrongName->errorCode, "analysis");

  const auto outOfRange =
      client.evaluate(analyzed->digest, {{"P", 99}}, &error);
  ASSERT_TRUE(outOfRange.has_value()) << error;
  EXPECT_FALSE(outOfRange->ok);
  EXPECT_EQ(outOfRange->errorCode, "analysis");
}

TEST(ServeDaemon, ParseErrorGetsErrorFrame) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  RequestFrame bad;
  bad.id = 77;
  bad.op = Op::Analyze;  // no input at all -> analysis error
  const auto response = client.call(bad, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->id, 77);
}

int mappedRegions() {
  std::ifstream maps("/proc/self/maps");
  int regions = 0;
  for (std::string line; std::getline(maps, line);) ++regions;
  return regions;
}

TEST(ServeDaemon, ClosedConnectionsDoNotKeepTheirThreadStacks) {
  // A connection thread that has returned keeps its stack mapped until
  // it is joined.  The daemon joins finished ones as it accepts new
  // connections, so many short-lived clients in a row leave the mapping
  // count flat instead of adding a stack per connection.
  RunningServer running;
  const auto oneClient = [&] {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
    const auto pong = client.ping(&error);
    ASSERT_TRUE(pong.has_value()) << error;
  };
  for (int i = 0; i < 5; ++i) oneClient();
  const int before = mappedRegions();
  constexpr int kClients = 40;
  for (int i = 0; i < kClients; ++i) oneClient();
  EXPECT_LT(mappedRegions() - before, kClients / 2);
}

TEST(ServeDaemon, ConcurrentClientsShareThePoolAndCache) {
  RunningServer running;
  constexpr int kClients = 4;
  constexpr int kRequestsEach = 3;
  std::vector<std::thread> threads;
  std::vector<std::int64_t> his(kClients * kRequestsEach, -1);
  // char, not bool: vector<bool> packs bits into shared words, which
  // would be a (test-side) data race across the client threads.
  std::vector<char> failed(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      std::string error;
      if (!client.connect(running.server.port(), &error)) {
        failed[c] = true;
        return;
      }
      for (int r = 0; r < kRequestsEach; ++r) {
        const auto response = client.analyze(fig2Request(), &error);
        if (!response.has_value() || !response->ok) {
          failed[c] = true;
          return;
        }
        his[c * kRequestsEach + r] = response->boundHi;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_FALSE(failed[c]) << c;
  for (const std::int64_t hi : his) EXPECT_EQ(hi, his[0]);
  // At least the repeats after the first completed solve hit the cache.
  const ipet::SolveCacheStats stats =
      running.server.service().cache().stats();
  EXPECT_GT(stats.boundHits, 0);
}

TEST(ServeDaemon, SnapshotSurvivesRestart) {
  const std::string path = test_util::uniqueTempPath("serve_daemon_test.csnap");
  std::remove(path.c_str());
  std::int64_t coldHi = 0;
  {
    ServerOptions options = basicOptions();
    options.snapshotPath = path;
    RunningServer running(std::move(options));
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
    const auto cold = client.analyze(fig2Request(), &error);
    ASSERT_TRUE(cold.has_value() && cold->ok) << error;
    coldHi = cold->boundHi;
    running.server.stop();  // writes the snapshot
  }
  {
    ServerOptions options = basicOptions();
    options.snapshotPath = path;
    RunningServer running(std::move(options));
    EXPECT_TRUE(running.server.snapshotLoadError().empty())
        << running.server.snapshotLoadError();
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
    const auto warm = client.analyze(fig2Request(), &error);
    ASSERT_TRUE(warm.has_value() && warm->ok) << error;
    EXPECT_TRUE(warm->cacheHit);  // served from the restored snapshot
    EXPECT_EQ(warm->boundHi, coldHi);
  }
  std::remove(path.c_str());
}

TEST(ServeDaemon, OverloadAdmissionClampsDeadlineButStaysSound) {
  ServerOptions options = basicOptions();
  options.poolThreads = 1;
  options.maxInflight = 1;  // the second concurrent request is overload
  RunningServer running(std::move(options));

  // Two clients racing; at least one response must succeed, and any
  // degraded admission still returns a sound (possibly looser) result.
  std::vector<std::thread> threads;
  std::vector<char> ok(2, 0);        // char: see ConcurrentClients above
  std::vector<char> degraded(2, 0);
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      Client client;
      std::string error;
      if (!client.connect(running.server.port(), &error)) return;
      ipet::AnalysisRequest request;
      request.benchmark = i == 0 ? "des" : "fullsearch";
      const auto response = client.analyze(request, &error);
      if (response.has_value() && response->ok) {
        ok[i] = true;
        degraded[i] = response->degradedAdmission;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok[0] || ok[1]);
  const ServeCounters counters = running.server.counters();
  // Whether overload triggered depends on timing; when it did, the
  // response carried the flag.
  if (counters.overloadAdmissions > 0) {
    EXPECT_TRUE(degraded[0] || degraded[1]);
  }
}

/// Raw loopback socket, for HTTP-on-the-NDJSON-port tests.
int rawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `request` and reads until EOF (HTTP/1.0 style).
std::string rawExchange(int fd, const std::string& request) {
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) return {};
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(ServeDaemon, HealthOpAndHealthzReportReadiness) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;

  const auto health = client.health(&error);
  ASSERT_TRUE(health.has_value()) << error;
  EXPECT_TRUE(health->ok);
  EXPECT_EQ(health->raw.stringOr("status", ""), "ready");
  EXPECT_FALSE(health->raw.boolOr("draining", true));
  EXPECT_EQ(health->raw.intOr("inflight", -1), 0);

  const int fd = rawConnect(running.server.port());
  ASSERT_GE(fd, 0);
  const std::string http = rawExchange(fd, "GET /healthz HTTP/1.0\r\n\r\n");
  ::close(fd);
  EXPECT_NE(http.find("200 OK"), std::string::npos) << http;
  EXPECT_NE(http.find("ready"), std::string::npos) << http;
}

TEST(ServeDaemon, DrainStopsAcceptingAndRejectsNewAnalyses) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;

  // A raw socket opened BEFORE the drain: the connection survives the
  // drain, so it can observe the 503 readiness flip.
  const int httpFd = rawConnect(running.server.port());
  ASSERT_GE(httpFd, 0);
  // Both connections must be accepted before the drain shuts the
  // listener down: one still in the kernel's backlog is reset instead.
  for (int i = 0; i < 2500 && running.server.counters().connections < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(running.server.counters().connections, 2);

  const auto ack = client.drain(&error);
  ASSERT_TRUE(ack.has_value()) << error;
  EXPECT_TRUE(ack->ok);
  EXPECT_TRUE(ack->raw.boolOr("draining", false));

  // The ack is sent before beginDrain() runs on the connection thread;
  // wait() blocks until the drain actually began (and wakes without a
  // shutdown having been requested).
  running.server.wait();
  EXPECT_TRUE(running.server.draining());
  EXPECT_FALSE(running.server.shutdownRequested());

  // New analyses on the surviving connection: typed "draining" error.
  const auto rejected = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(rejected.has_value()) << error;
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(rejected->errorCode, "draining");

  // Non-analyze ops still work: health now reports draining.
  const auto health = client.health(&error);
  ASSERT_TRUE(health.has_value()) << error;
  EXPECT_TRUE(health->ok);
  EXPECT_EQ(health->raw.stringOr("status", ""), "draining");

  const std::string http = rawExchange(httpFd, "GET /healthz HTTP/1.0\r\n\r\n");
  ::close(httpFd);
  EXPECT_NE(http.find("503"), std::string::npos) << http;
  EXPECT_NE(http.find("draining"), std::string::npos) << http;

  // No in-flight work: the drain settles immediately.
  EXPECT_TRUE(running.server.awaitIdle(5000));

  // The listener is closed: fresh connections are refused.
  Client late;
  EXPECT_FALSE(late.connect(running.server.port(), &error));

  const ServeCounters counters = running.server.counters();
  EXPECT_TRUE(counters.draining);
  EXPECT_EQ(counters.drainRejections, 1);
}

TEST(ServeDaemon, OversizedFrameGetsTypedErrorAndConnectionSurvives) {
  ServerOptions options = basicOptions();
  options.maxRequestBytes = 512;
  RunningServer running(std::move(options));
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;

  ipet::AnalysisRequest oversized = fig2Request();
  oversized.source = std::string(4096, ' ') + kFig2;
  const auto rejected = client.analyze(oversized, &error);
  ASSERT_TRUE(rejected.has_value()) << error;
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(rejected->errorCode, "toolarge");

  // The oversized line was discarded, not the connection: a normal
  // request right after still works.
  const auto accepted = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(accepted.has_value()) << error;
  EXPECT_TRUE(accepted->ok) << accepted->error;
  EXPECT_EQ(running.server.counters().rejectedOversize, 1);
}

TEST(ServeDaemon, HardOverloadCapRejectsWithTypedError) {
  ServerOptions options = basicOptions();
  options.poolThreads = 1;
  options.maxInflight = 1;
  options.maxQueuedRequests = 0;  // hard cap right at the inflight limit
  RunningServer running(std::move(options));

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> codes(kClients);
  std::vector<char> ok(kClients, 0);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client;
      std::string error;
      if (!client.connect(running.server.port(), &error)) return;
      ipet::AnalysisRequest request;
      request.benchmark = (i % 2 == 0) ? "des" : "fullsearch";
      const auto response = client.analyze(request, &error);
      if (!response.has_value()) return;
      ok[i] = response->ok;
      codes[i] = response->errorCode;
    });
  }
  for (auto& t : threads) t.join();

  int succeeded = 0;
  for (int i = 0; i < kClients; ++i) succeeded += ok[i] ? 1 : 0;
  EXPECT_GT(succeeded, 0);
  const ServeCounters counters = running.server.counters();
  // Rejections depend on timing; when one happened it was typed and the
  // counter matches the responses seen.
  int rejected = 0;
  for (int i = 0; i < kClients; ++i) {
    if (!ok[i] && !codes[i].empty()) {
      EXPECT_EQ(codes[i], "overloaded") << i;
      ++rejected;
    }
  }
  EXPECT_EQ(counters.rejectedOverload, rejected);
}

TEST(ServeDaemon, MemoryCeilingDegradesSoundlyAndSkipsCacheAdmission) {
  ServerOptions options = basicOptions();
  options.maxRequestMemoryBytes = 1024;  // far below any real solve
  RunningServer running(std::move(options));
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;

  const auto first = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(first.has_value()) << error;
  ASSERT_TRUE(first->ok) << first->error;
  EXPECT_TRUE(first->sound);
  EXPECT_GE(first->boundHi, first->boundLo);

  // The ceiling degraded the solve to a structural bound, which is
  // inadmissible for the cache: the repeat is NOT a hit.
  const auto second = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(second.has_value()) << error;
  ASSERT_TRUE(second->ok) << second->error;
  EXPECT_FALSE(second->cacheHit);
  EXPECT_EQ(second->boundHi, first->boundHi);
}

TEST(ServeDaemon, RetryReconnectsAfterDaemonRestartOnSamePort) {
  auto first = std::make_unique<Server>(basicOptions());
  std::string error;
  ASSERT_TRUE(first->start(&error)) << error;
  const int port = first->port();

  Client client;
  ASSERT_TRUE(client.connect(port, &error)) << error;
  const auto before = client.ping(&error);
  ASSERT_TRUE(before.has_value()) << error;

  // Kill the daemon, then start a replacement on the same port
  // (SO_REUSEADDR makes the rebind immediate).
  first->stop();
  first.reset();
  ServerOptions replacement = basicOptions();
  replacement.port = port;
  Server second(replacement);
  ASSERT_TRUE(second.start(&error)) << error;

  // Without retries the stale connection is a transport error...
  const auto lost = client.ping(&error);
  EXPECT_FALSE(lost.has_value());

  // ...with retries the client reconnects and the call succeeds.
  RetryPolicy policy;
  policy.maxAttempts = 5;
  policy.initialBackoffMs = 10;
  client.setRetryPolicy(policy);
  const auto after = client.ping(&error);
  ASSERT_TRUE(after.has_value()) << error;
  EXPECT_TRUE(after->ok);
  EXPECT_GE(client.retryStats().retries, 1);
  EXPECT_GE(client.retryStats().reconnects, 1);
  second.stop();
}

TEST(ServeDaemon, JournalRecoversAdmissionsAfterUncleanExit) {
  const std::string snap =
      test_util::uniqueTempPath("serve_journal_test.csnap");
  const std::string journal = snap + ".journal";
  std::remove(snap.c_str());
  std::remove(journal.c_str());
  std::int64_t coldHi = 0;
  {
    // Journal armed, but NO snapshot path: stop() never saves, so this
    // run ends exactly like a kill -9 between snapshots — the journal
    // is all that survives.
    ServerOptions options = basicOptions();
    options.journalPath = journal;
    RunningServer running(std::move(options));
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
    const auto cold = client.analyze(fig2Request(), &error);
    ASSERT_TRUE(cold.has_value() && cold->ok) << error;
    coldHi = cold->boundHi;
    ASSERT_NE(std::ifstream(journal).peek(), EOF)
        << "admission was not journaled";
  }

  ServerOptions options = basicOptions();
  options.snapshotPath = snap;
  options.journalPath = journal;
  RunningServer running(std::move(options));
  const ipet::SnapshotRestoreReport& report = running.server.restoreReport();
  EXPECT_FALSE(report.snapshotFound);
  EXPECT_TRUE(report.journalFound);
  EXPECT_GT(report.journalRecords, 0u);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  const auto warm = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(warm.has_value() && warm->ok) << error;
  EXPECT_TRUE(warm->cacheHit) << "journal replay did not restore the entry";
  EXPECT_EQ(warm->boundHi, coldHi);
  std::remove(snap.c_str());
  std::remove(journal.c_str());
}

TEST(ServeDaemon, ShutdownHandshakeStopsTheDaemon) {
  Server server(basicOptions());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connect(server.port(), &error)) << error;
  const auto ack = client.shutdown(&error);
  ASSERT_TRUE(ack.has_value()) << error;
  EXPECT_TRUE(ack->ok);
  server.wait();  // returns because shutdown was requested
  EXPECT_TRUE(server.shutdownRequested());
  server.stop();
  // The port is closed: a fresh connect fails.
  Client late;
  EXPECT_FALSE(late.connect(server.port(), &error));
}

/// Erases, left to right, every span of `text` that starts with `open`
/// and whose rest `restEnd(text, from)` accepts: it returns where the
/// span ends, or npos when the rest at `from` does not match.
template <class RestEnd>
void eraseSpans(std::string& text, std::string_view open, RestEnd restEnd) {
  std::size_t at = 0;
  while ((at = text.find(open, at)) != std::string::npos) {
    const std::size_t end = restEnd(text, at + open.size());
    if (end == std::string::npos) {
      ++at;
    } else {
      text.erase(at, end - at);
    }
  }
}

/// An analyze reply with what differs between two answers of one
/// request masked: the id, the wall times and the stage telemetry.
std::string maskedReply(const Response& response) {
  constexpr std::size_t npos = std::string::npos;
  std::string text = response.rawText;
  // `<digits>,`
  const auto counter = [](const std::string& t, std::size_t from) {
    const std::size_t end = t.find_first_not_of("0123456789", from);
    return end != from && end != npos && t[end] == ',' ? end + 1 : npos;
  };
  eraseSpans(text, R"("id":)", counter);
  eraseSpans(text, R"("wallMicros":)", counter);
  // `<request id>","stages":{<stages, no '}'>}},`
  eraseSpans(text, R"("telemetry":{"requestId":")",
             [](const std::string& t, std::size_t from) {
               constexpr std::string_view kStages = R"(","stages":{)";
               const std::size_t quote = t.find('"', from);
               if (quote == npos || t.compare(quote, kStages.size(), kStages) != 0) {
                 return npos;
               }
               const std::size_t brace = t.find('}', quote + kStages.size());
               return brace != npos && t.compare(brace, 3, "}},") == 0
                          ? brace + 3
                          : npos;
             });
  return text;
}

/// The record of request `id` in a flightrecorder reply, or null.
const obs::JsonValue* flightRecordOf(const obs::JsonValue& reply,
                                     std::int64_t id) {
  const obs::JsonValue* dump = reply.find("flightRecorder");
  const obs::JsonValue* records =
      dump != nullptr ? dump->find("records") : nullptr;
  if (records == nullptr) return nullptr;
  for (const obs::JsonValue& record : records->items) {
    if (record.stringOr("id", "") == std::to_string(id)) return &record;
  }
  return nullptr;
}

TEST(ServeDaemon, RequestMemoReplyEqualsTheDigestPathHitReply) {
  // For a benchmark, an LP and a parametric request in every cache
  // mode: after restore() (which empties the memo) the repeat is a
  // digest-path hit, the next repeat a memo hit.  The two replies are
  // identical once ids, wall times and telemetry are masked, and the
  // memo hit's flight record shows no frontend, cfg or solve stage.
  const std::string snapshot = test_util::uniqueTempPath("memo.csnap");
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  ipet::SolveCache& cache = running.server.service().cache();

  ipet::AnalysisRequest benchmark;
  benchmark.benchmark = "piksrt";
  ipet::AnalysisRequest lp;
  lp.label = "lp";
  lp.lpInput = true;
  lp.source =
      "Maximize\n obj: 3 a + 2 b\nSubject To\n c0: a + b <= 4\n c1: a <= 3\n"
      "General\n a\n b\nEnd\n";
  ipet::AnalysisRequest parametric;
  parametric.label = "ploop";
  parametric.source = kLoop;
  parametric.root = "f";
  parametric.constraints.push_back({"x0 <= 3 * @P", ""});
  parametric.parameters = {{"P", 1, 3}};
  std::vector<std::int64_t> memoIds;
  for (const char* mode : {"allmiss", "firstiter", "ccg"}) {
    for (ipet::AnalysisRequest request : {benchmark, lp, parametric}) {
      request.cacheMode = *ipet::parseCacheMode(mode);
      const std::string label =
          std::string(mode) + " " +
          (request.label.empty() ? request.benchmark : request.label);
      cache.clear();
      const auto cold = client.analyze(request, &error);
      ASSERT_TRUE(cold.has_value() && cold->ok)
          << label << ": " << error << (cold ? cold->error : "");
      ASSERT_FALSE(cold->cacheHit) << label;
      ASSERT_TRUE(cache.save(snapshot, &error)) << error;
      (void)cache.restore(snapshot);
      const auto viaDigest = client.analyze(request, &error);
      ASSERT_TRUE(viaDigest.has_value() && viaDigest->ok) << label;
      const auto viaMemo = client.analyze(request, &error);
      ASSERT_TRUE(viaMemo.has_value() && viaMemo->ok) << label;
      EXPECT_TRUE(viaDigest->cacheHit) << label;
      EXPECT_TRUE(viaMemo->cacheHit) << label;
      EXPECT_EQ(viaMemo->digest.size(), 32u) << label;
      EXPECT_EQ(maskedReply(*viaMemo), maskedReply(*viaDigest)) << label;
      EXPECT_EQ(maskedReply(*viaMemo).find("wallMicros"), std::string::npos);
      EXPECT_NE(maskedReply(*viaMemo).find("\"report\":{"), std::string::npos);
      memoIds.push_back(viaMemo->id);
    }
  }
  std::remove(snapshot.c_str());
  // Nine memo hits, counted beside the bound and formula hits.
  EXPECT_EQ(cache.stats().requestHits, 9);

  const auto dump = client.flightrecorder(&error);
  ASSERT_TRUE(dump.has_value() && dump->ok) << error;
  for (const std::int64_t id : memoIds) {
    const obs::JsonValue* record = flightRecordOf(dump->raw, id);
    ASSERT_NE(record, nullptr) << id;
    EXPECT_TRUE(record->boolOr("cacheHit", false)) << id;
    const obs::JsonValue* stages = record->find("stages");
    ASSERT_NE(stages, nullptr);
    for (const char* stage : {"frontend", "cfg", "solve"}) {
      EXPECT_EQ(stages->find(stage), nullptr) << id << " " << stage;
    }
  }
}

TEST(ServeDaemon, RequestMemoCountersReachStatsAndMetrics) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  for (int i = 0; i < 3; ++i) {
    const auto response = client.analyze(fig2Request(), &error);
    ASSERT_TRUE(response.has_value() && response->ok) << error;
  }
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value() && stats->ok) << error;
  const obs::JsonValue* cache = stats->raw.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->intOr("requestHits", -1), 2);
  EXPECT_EQ(cache->intOr("requestMisses", -1), 1);
  EXPECT_EQ(cache->intOr("boundHits", -1), 2);

  const auto metrics = client.metrics(&error);
  ASSERT_TRUE(metrics.has_value() && metrics->ok) << error;
  const std::string text = metrics->raw.stringOr("prometheus", "");
  EXPECT_EQ(obs::prometheusLint(text), "") << text;
  EXPECT_NE(text.find("cinderella_cache_request_hits_total 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cinderella_cache_request_misses_total 1"),
            std::string::npos)
      << text;
}

TEST(ServeDaemon, RequestMemoServesConcurrentRepeatsAcrossConnections) {
  // Two connections repeat one request at once.  Each connection's
  // first request may solve or take the digest path; every later one
  // finds the memo entry the first recorded.
  RunningServer running;
  constexpr int kRepeats = 25;
  std::vector<std::int64_t> his(2 * kRepeats, -1);
  std::vector<char> hits(2 * kRepeats, 0);
  std::vector<char> failed(2, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      std::string error;
      if (!client.connect(running.server.port(), &error)) {
        failed[c] = 1;
        return;
      }
      for (int r = 0; r < kRepeats; ++r) {
        const auto response = client.analyze(fig2Request(), &error);
        if (!response.has_value() || !response->ok) {
          failed[c] = 1;
          return;
        }
        his[c * kRepeats + r] = response->boundHi;
        hits[c * kRepeats + r] = response->cacheHit ? 1 : 0;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < 2; ++c) ASSERT_FALSE(failed[c]) << c;
  for (std::size_t i = 0; i < his.size(); ++i) {
    EXPECT_EQ(his[i], his[0]) << i;
    if (i % kRepeats != 0) {
      EXPECT_TRUE(hits[i]) << i;
    }
  }
  const ipet::SolveCacheStats stats =
      running.server.service().cache().stats();
  EXPECT_EQ(stats.requestHits + stats.requestMisses, 2 * kRepeats);
  EXPECT_LE(stats.requestMisses, 2);
  EXPECT_EQ(running.server.service().cache().requestEntries(), 1u);
}

/// A cold solve that keeps a solver thread busy for a while: a loop of
/// 300 branches under seven two-way disjunctions, so 128 distinct
/// constraint sets each solve an ILP of over a thousand rows.
ipet::AnalysisRequest slowColdRequest() {
  std::string source =
      "int a[16];\nint s;\nvoid main() {\n  int i;\n"
      "  for (i = 0; i < 10; i = i + 1) {\n    __loopbound(10, 10);\n";
  for (int i = 0; i < 300; ++i) {
    source += "    if (a[" + std::to_string(i % 16) + "] > " +
              std::to_string(i) + ") { s = s + " + std::to_string(i) +
              "; } else { s = s - a[" + std::to_string(i * 7 % 16) +
              "]; }\n";
  }
  source += "  }\n}\n";
  ipet::AnalysisRequest request;
  request.label = "slow";
  request.source = std::move(source);
  for (int k = 0; k < 7; ++k) {
    const std::string x = "x" + std::to_string(5 + 2 * k);
    request.constraints.push_back({x + " <= 10 | " + x + " >= 1", ""});
  }
  return request;
}

TEST(ServeDaemon, CacheHitIsAnsweredWhileEverySolverIsBusy) {
  // One solver thread, one solve slot and no queue: while a cold solve
  // holds them, any second solve is rejected as overloaded.  A repeat
  // solves nothing, so it is answered on its connection thread.
  ServerOptions options = basicOptions();
  options.poolThreads = 1;
  options.maxInflight = 1;
  options.maxQueuedRequests = 0;
  RunningServer running(std::move(options));
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  const auto cold = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(cold.has_value() && cold->ok) << error;
  ASSERT_FALSE(cold->cacheHit);

  std::optional<Response> slow;
  std::thread busy([&] {
    Client other;
    std::string otherError;
    if (other.connect(running.server.port(), &otherError)) {
      slow = other.analyze(slowColdRequest(), &otherError);
    }
  });
  for (int i = 0; i < 5000 && running.server.counters().inflight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::int64_t inflightBeforeHit = running.server.counters().inflight;
  const auto hit = client.analyze(fig2Request(), &error);
  const std::int64_t inflightAfterHit = running.server.counters().inflight;
  busy.join();

  // The cold solve held the only slot before the repeat was sent and
  // after it was answered.
  EXPECT_EQ(inflightBeforeHit, 1);
  EXPECT_EQ(inflightAfterHit, 1);
  ASSERT_TRUE(hit.has_value()) << error;
  EXPECT_TRUE(hit->ok) << hit->errorCode << ": " << hit->error;
  EXPECT_TRUE(hit->cacheHit);
  EXPECT_FALSE(hit->degradedAdmission);
  EXPECT_EQ(hit->boundLo, cold->boundLo);
  EXPECT_EQ(hit->boundHi, cold->boundHi);
  const ServeCounters counters = running.server.counters();
  EXPECT_EQ(counters.rejectedOverload, 0);
  EXPECT_EQ(counters.overloadAdmissions, 0);
  EXPECT_EQ(counters.inflight, 0);
  ASSERT_TRUE(slow.has_value());
  EXPECT_TRUE(slow->ok) << slow->error;
  EXPECT_FALSE(slow->cacheHit);
}

TEST(ServeDaemon, DrainRejectsCacheHitsToo) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  const auto cold = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(cold.has_value() && cold->ok) << error;

  const auto ack = client.drain(&error);
  ASSERT_TRUE(ack.has_value() && ack->ok) << error;
  running.server.wait();

  // The repeat would be a hit, but a draining daemon takes no analyses.
  const auto rejected = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(rejected.has_value()) << error;
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(rejected->errorCode, "draining");
  EXPECT_EQ(running.server.counters().drainRejections, 1);
  EXPECT_EQ(running.server.service().cache().stats().requestHits, 0);
}

}  // namespace
}  // namespace cinderella::serve
