// Request-scoped telemetry through the daemon: per-stage timings land
// on the request that incurred them (even with concurrent clients on a
// shared pool), responses echo client ids, and the metrics /
// flightrecorder ops round-trip.  Named ServeTelemetry* so the CI
// ThreadSanitizer job can select them alongside ServeDaemon*.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cinderella/obs/json_parse.hpp"
#include "cinderella/obs/prometheus.hpp"
#include "cinderella/serve/client.hpp"
#include "cinderella/serve/server.hpp"
#include "cinderella/suite/suite.hpp"

namespace cinderella::serve {
namespace {

constexpr const char* kFig2 =
    "int q;\nint r;\n"
    "void f(int p) { if (p) { q = 1; } else { q = 2; } r = q; }";

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

/// The embedded telemetry object, or nullptr (with a gtest failure).
const obs::JsonValue* telemetryOf(const Response& response) {
  const obs::JsonValue* telemetry = response.raw.find("telemetry");
  EXPECT_NE(telemetry, nullptr) << "response carries no telemetry";
  return telemetry;
}

std::int64_t stageMicrosOf(const obs::JsonValue* telemetry,
                           const char* stage) {
  const obs::JsonValue* stages =
      telemetry != nullptr ? telemetry->find("stages") : nullptr;
  return stages != nullptr ? stages->intOr(stage, 0) : 0;
}

TEST(ServeTelemetry, AnalyzeResponseEmbedsPerStageTimings) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  const auto response = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(response.has_value() && response->ok) << error;

  const obs::JsonValue* telemetry = telemetryOf(*response);
  ASSERT_NE(telemetry, nullptr);
  // Cold analyze of source: the frontend, digest and solve stages all
  // ran.  Timings may legitimately round to 0 µs, but the keys exist.
  const obs::JsonValue* stages = telemetry->find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_NE(stages->find("frontend"), nullptr);
  EXPECT_NE(stages->find("digest"), nullptr);
  EXPECT_NE(stages->find("solve"), nullptr);
  // The telemetry's request id matches the response id.
  EXPECT_EQ(telemetry->stringOr("requestId", ""),
            std::to_string(response->id));
}

TEST(ServeTelemetry, ConcurrentClientsGetTheirOwnStageAttribution) {
  RunningServer running;
  // Two clients in flight at once on a 2-thread pool: one analyzes a
  // three-block toy function, the other a real benchmark whose cold
  // solve is orders of magnitude more work (whetstone's cache conflict
  // graph: over 100 ms, far beyond a scheduling stall of the toy request
  // under a loaded `ctest -j`).  If stage accounting were
  // process-global, the toy request would absorb solver time from its
  // neighbour; request-scoped accounting keeps them apart.
  std::int64_t tinySolve = -1;
  std::int64_t heavySolve = -1;
  std::vector<char> failed(2, 0);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Client client;
    std::string error;
    if (!client.connect(running.server.port(), &error)) {
      failed[0] = 1;
      return;
    }
    const auto response = client.analyze(fig2Request(), &error);
    if (!response.has_value() || !response->ok) {
      failed[0] = 1;
      return;
    }
    tinySolve = stageMicrosOf(response->raw.find("telemetry"), "solve");
  });
  threads.emplace_back([&] {
    Client client;
    std::string error;
    if (!client.connect(running.server.port(), &error)) {
      failed[1] = 1;
      return;
    }
    ipet::AnalysisRequest request;
    request.benchmark = "whetstone";
    request.cacheMode = ipet::CacheMode::ConflictGraph;
    const auto response = client.analyze(request, &error);
    if (!response.has_value() || !response->ok) {
      failed[1] = 1;
      return;
    }
    heavySolve = stageMicrosOf(response->raw.find("telemetry"), "solve");
  });
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed[0]);
  ASSERT_FALSE(failed[1]);
  // Both solves ran and were attributed somewhere.
  EXPECT_GE(tinySolve, 0);
  EXPECT_GT(heavySolve, 0);
  // The toy function's attributed solve time must not contain the
  // benchmark's: it stays strictly below its concurrent neighbour.
  EXPECT_LT(tinySolve, heavySolve);
}

TEST(ServeTelemetry, EachRequestGetsItsOwnTelemetryObject) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  const auto cold = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(cold.has_value() && cold->ok) << error;
  const auto warm = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(warm.has_value() && warm->ok) << error;
  ASSERT_TRUE(warm->cacheHit);
  // Stage accumulators are per-request, not cumulative: the cache-served
  // repeat reports no fresh solve time, even though the daemon solved
  // moments ago.
  EXPECT_EQ(stageMicrosOf(telemetryOf(*warm), "solve"), 0);
  EXPECT_GT(stageMicrosOf(telemetryOf(*warm), "cache-lookup") +
                stageMicrosOf(telemetryOf(*warm), "encode") +
                stageMicrosOf(telemetryOf(*warm), "decode"),
            -1);  // keys readable; values may round to 0 µs
}

TEST(ServeTelemetry, MetricsOpReturnsLintCleanPrometheusText) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  ASSERT_TRUE(client.analyze(fig2Request(), &error).has_value());

  const auto response = client.metrics(&error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_TRUE(response->ok) << response->error;
  const std::string text = response->raw.stringOr("prometheus", "");
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(obs::prometheusLint(text), "") << text;
  EXPECT_NE(text.find("cinderella_serve_requests_total"), std::string::npos);
  EXPECT_NE(text.find("cinderella_serve_request_micros_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("cinderella_serve_stage_solve_micros"),
            std::string::npos);
  EXPECT_NE(text.find("cinderella_serve_inflight"), std::string::npos);
}

TEST(ServeTelemetry, StatsOpCarriesTheMetricsDump) {
  RunningServer running;
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  ASSERT_TRUE(client.analyze(fig2Request(), &error).has_value());
  const auto stats = client.stats(&error);
  ASSERT_TRUE(stats.has_value() && stats->ok) << error;
  const obs::JsonValue* metrics = stats->raw.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->intOr("serve.requests", 0), 2);
  const obs::JsonValue* histograms = metrics->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const obs::JsonValue* requestMicros =
      histograms->find("serve.request_micros");
  ASSERT_NE(requestMicros, nullptr);
  EXPECT_GE(requestMicros->intOr("count", 0), 1);
  EXPECT_NE(requestMicros->find("p50"), nullptr);
  EXPECT_NE(requestMicros->find("p99"), nullptr);
}

TEST(ServeTelemetry, FlightRecorderOpReturnsRecentRequests) {
  ServerOptions options = basicOptions();
  options.flightRecorderEntries = 8;
  RunningServer running(std::move(options));
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  const auto analyzed = client.analyze(fig2Request(), &error);
  ASSERT_TRUE(analyzed.has_value() && analyzed->ok) << error;

  const auto response = client.flightrecorder(&error);
  ASSERT_TRUE(response.has_value()) << error;
  ASSERT_TRUE(response->ok) << response->error;
  const obs::JsonValue* flight = response->raw.find("flightRecorder");
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->intOr("capacity", 0), 8);
  EXPECT_GE(flight->intOr("recorded", 0), 1);
  const obs::JsonValue* records = flight->find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_FALSE(records->items.empty());
  // The analyze request we just made is in the ring, with its stages.
  bool sawAnalyze = false;
  for (const obs::JsonValue& record : records->items) {
    if (record.stringOr("op", "") == "analyze" &&
        record.stringOr("label", "") == "fig2") {
      sawAnalyze = true;
      EXPECT_EQ(record.stringOr("id", ""), std::to_string(analyzed->id));
      EXPECT_TRUE(record.find("stages") != nullptr);
      const obs::JsonValue* bound = record.find("bound");
      ASSERT_NE(bound, nullptr);
      EXPECT_GT(bound->intOr("hi", 0), 0);
    }
  }
  EXPECT_TRUE(sawAnalyze);
}

TEST(ServeTelemetry, FlightRecorderKeepsOnlyTheLastCapacityRequests) {
  ServerOptions options = basicOptions();
  options.flightRecorderEntries = 8;  // rounds to one slot per stripe
  RunningServer running(std::move(options));
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(running.server.port(), &error)) << error;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.ping(&error).has_value()) << error;
  }
  const auto response = client.flightrecorder(&error);
  ASSERT_TRUE(response.has_value() && response->ok) << error;
  const obs::JsonValue* flight = response->raw.find("flightRecorder");
  ASSERT_NE(flight, nullptr);
  EXPECT_GE(flight->intOr("recorded", 0), 20);
  const obs::JsonValue* records = flight->find("records");
  ASSERT_NE(records, nullptr);
  EXPECT_LE(records->items.size(), 8u);
  // The survivors are the newest records, in order.
  std::int64_t lastSeq = 0;
  for (const obs::JsonValue& record : records->items) {
    const std::int64_t seq = record.intOr("seq", 0);
    EXPECT_GT(seq, lastSeq);
    lastSeq = seq;
  }
  EXPECT_GE(lastSeq, 20);
}

}  // namespace
}  // namespace cinderella::serve
