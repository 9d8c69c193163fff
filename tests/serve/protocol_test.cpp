// The NDJSON wire protocol in isolation: request encode/decode round
// trips, field validation, error frames, and the embedded report
// document (including its schemaVersion).
#include <gtest/gtest.h>

#include <string>

#include "cinderella/ipet/formula.hpp"
#include "cinderella/obs/json_parse.hpp"
#include "cinderella/obs/report.hpp"
#include "cinderella/serve/protocol.hpp"

namespace cinderella::serve {
namespace {

TEST(ServeProtocol, RequestRoundTripPreservesEveryField) {
  RequestFrame frame;
  frame.id = 42;
  frame.op = Op::Analyze;
  frame.request.label = "my-label";
  frame.request.source = "void f() { }";
  frame.request.root = "f";
  frame.request.constraints.push_back({"x0 = 1", "f"});
  frame.request.constraints.push_back({"x1 <= 2", ""});
  frame.request.cacheMode = ipet::CacheMode::FirstIterationSplit;
  frame.request.cachePolicy = ipet::CachePolicy::ReadOnly;
  frame.request.control.threads = 4;
  frame.request.control.deadline = std::chrono::milliseconds(250);
  frame.request.control.maxNodes = 99;

  const std::string line = encodeRequest(frame);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  RequestFrame back;
  std::string error;
  ASSERT_TRUE(decodeRequest(line, &back, &error)) << error;
  EXPECT_EQ(back.id, 42);
  EXPECT_EQ(back.op, Op::Analyze);
  EXPECT_EQ(back.request.label, "my-label");
  EXPECT_EQ(back.request.source, frame.request.source);
  EXPECT_EQ(back.request.root, "f");
  ASSERT_EQ(back.request.constraints.size(), 2u);
  EXPECT_EQ(back.request.constraints[0].text, "x0 = 1");
  EXPECT_EQ(back.request.constraints[0].scope, "f");
  EXPECT_EQ(back.request.cacheMode, ipet::CacheMode::FirstIterationSplit);
  EXPECT_EQ(back.request.cachePolicy, ipet::CachePolicy::ReadOnly);
  EXPECT_EQ(back.request.control.threads, 4);
  EXPECT_EQ(back.request.control.deadline.count(), 250);
  EXPECT_EQ(back.request.control.maxNodes, 99);
}

TEST(ServeProtocol, BenchmarkRequestAndDefaults) {
  RequestFrame frame;
  frame.request.benchmark = "piksrt";
  RequestFrame back;
  std::string error;
  ASSERT_TRUE(decodeRequest(encodeRequest(frame), &back, &error)) << error;
  EXPECT_EQ(back.request.benchmark, "piksrt");
  EXPECT_TRUE(back.request.source.empty());
  EXPECT_EQ(back.request.cacheMode, ipet::CacheMode::AllMiss);
  EXPECT_EQ(back.request.cachePolicy, ipet::CachePolicy::ReadWrite);
}

TEST(ServeProtocol, LegacyWarmStartFieldIsAcceptedAndIgnored) {
  // Clients written against the warm-start engine still send the flag.
  for (const char* line :
       {R"({"id":1,"op":"analyze","benchmark":"piksrt","warmStart":false})",
        R"({"id":2,"op":"analyze","benchmark":"piksrt","warmStart":true})"}) {
    RequestFrame back;
    std::string error;
    ASSERT_TRUE(decodeRequest(line, &back, &error)) << error;
    EXPECT_EQ(back.request.benchmark, "piksrt");
  }
  RequestFrame frame;
  frame.request.benchmark = "piksrt";
  EXPECT_EQ(encodeRequest(frame).find("warmStart"), std::string::npos);
}

TEST(ServeProtocol, ConstraintsAcceptBareStrings) {
  RequestFrame back;
  std::string error;
  ASSERT_TRUE(decodeRequest(
      R"({"op":"analyze","source":"void f(){}","constraints":["x0 = 1"]})",
      &back, &error))
      << error;
  ASSERT_EQ(back.request.constraints.size(), 1u);
  EXPECT_EQ(back.request.constraints[0].text, "x0 = 1");
  EXPECT_TRUE(back.request.constraints[0].scope.empty());
}

TEST(ServeProtocol, OpsParseAndDefaultToAnalyze) {
  RequestFrame back;
  std::string error;
  ASSERT_TRUE(decodeRequest(R"({"op":"ping","id":3})", &back, &error));
  EXPECT_EQ(back.op, Op::Ping);
  ASSERT_TRUE(decodeRequest(R"({"op":"stats"})", &back, &error));
  EXPECT_EQ(back.op, Op::Stats);
  ASSERT_TRUE(decodeRequest(R"({"op":"shutdown"})", &back, &error));
  EXPECT_EQ(back.op, Op::Shutdown);
  ASSERT_TRUE(decodeRequest(R"({"source":"void f(){}"})", &back, &error));
  EXPECT_EQ(back.op, Op::Analyze);
}

TEST(ServeProtocol, StringIdsRoundTripVerbatim) {
  RequestFrame back;
  std::string error;
  ASSERT_TRUE(decodeRequest(R"({"op":"ping","id":"req-abc.01"})", &back,
                            &error))
      << error;
  EXPECT_TRUE(back.hasId);
  EXPECT_TRUE(back.idIsString);
  EXPECT_EQ(back.idText, "req-abc.01");
  // Encoding the frame back emits the string id unchanged.
  const std::string line = encodeRequest(back);
  EXPECT_NE(line.find(R"("id":"req-abc.01")"), std::string::npos) << line;
  // And responses echo it: WireId renders strings as strings.
  const auto pong = decodeResponse(encodePong(WireId("req-abc.01")), &error);
  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_EQ(pong->requestId, "req-abc.01");
}

TEST(ServeProtocol, AbsentIdIsAllowedAndMarked) {
  RequestFrame back;
  std::string error;
  ASSERT_TRUE(decodeRequest(R"({"op":"ping"})", &back, &error)) << error;
  EXPECT_FALSE(back.hasId);
  // A frame without an id encodes without one, too.
  RequestFrame frame;
  frame.op = Op::Ping;
  frame.hasId = false;
  EXPECT_EQ(encodeRequest(frame).find("\"id\""), std::string::npos);
}

TEST(ServeProtocol, MalformedIdsAreRejectedWithAClearError) {
  RequestFrame back;
  std::string error;
  for (const char* bad : {
           R"({"op":"ping","id":3.5})",          // fractional
           R"({"op":"ping","id":true})",         // wrong type
           R"({"op":"ping","id":[1]})",          // wrong type
           R"({"op":"ping","id":{"n":1}})",      // wrong type
           R"({"op":"ping","id":""})",           // empty string
           R"({"op":"ping","id":"a\tb"})",       // control character
       }) {
    error.clear();
    EXPECT_FALSE(decodeRequest(bad, &back, &error)) << "accepted: " << bad;
    EXPECT_NE(error.find("id"), std::string::npos) << bad << ": " << error;
  }
  // Over-long string ids are rejected (bounded log/flight records).
  const std::string longId(129, 'x');
  EXPECT_FALSE(decodeRequest(R"({"op":"ping","id":")" + longId + "\"}", &back,
                             &error));
}

TEST(ServeProtocol, WireIdRendersIntAndStringForms) {
  EXPECT_EQ(WireId(42).str(), "42");
  EXPECT_EQ(WireId("srv-7").str(), "srv-7");
  std::string error;
  const auto numeric = decodeResponse(encodePong(WireId(42)), &error);
  ASSERT_TRUE(numeric.has_value()) << error;
  EXPECT_EQ(numeric->id, 42);
  EXPECT_EQ(numeric->requestId, "42");
}

TEST(ServeProtocol, MetricsAndFlightRecorderFramesRoundTrip) {
  std::string error;
  const auto metrics = decodeResponse(
      encodeMetricsResponse(8, "# TYPE m counter\nm 1\n"), &error);
  ASSERT_TRUE(metrics.has_value()) << error;
  EXPECT_TRUE(metrics->ok);
  EXPECT_EQ(metrics->id, 8);
  EXPECT_EQ(metrics->raw.stringOr("prometheus", ""),
            "# TYPE m counter\nm 1\n");
  EXPECT_NE(metrics->raw.stringOr("contentType", "").find("0.0.4"),
            std::string::npos);

  const auto flight = decodeResponse(
      encodeFlightRecorderResponse(
          9, R"({"capacity":8,"recorded":0,"records":[]})"),
      &error);
  ASSERT_TRUE(flight.has_value()) << error;
  EXPECT_TRUE(flight->ok);
  const obs::JsonValue* recorder = flight->raw.find("flightRecorder");
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(recorder->intOr("capacity", 0), 8);

  RequestFrame back;
  ASSERT_TRUE(decodeRequest(R"({"op":"metrics","id":1})", &back, &error));
  EXPECT_EQ(back.op, Op::Metrics);
  ASSERT_TRUE(decodeRequest(R"({"op":"flightrecorder","id":2})", &back,
                            &error));
  EXPECT_EQ(back.op, Op::FlightRecorder);
}

TEST(ServeProtocol, DecodeRejectsInvalidFrames) {
  RequestFrame back;
  std::string error;
  for (const char* bad : {
           "not json",
           "[1,2,3]",                                  // not an object
           R"({"op":"fly"})",                          // unknown op
           R"({"op":"analyze","cache":"writeback"})",  // bad cache mode
           R"({"op":"analyze","cachePolicy":"maybe"})",
           R"({"op":"analyze","jobs":-1})",
           R"({"op":"analyze","jobs":9999})",
           R"({"op":"analyze","deadlineMs":-5})",
           R"({"op":"analyze","constraints":[{"scope":"f"}]})",  // no text
       }) {
    error.clear();
    EXPECT_FALSE(decodeRequest(bad, &back, &error)) << "accepted: " << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ServeProtocol, AnalyzeResponseEmbedsReportWithSchemaVersion) {
  ipet::AnalysisResult result;
  result.program = "unit";
  result.estimate.bound = {7, 1234};
  result.fullDigest = {1, 2};
  result.structuralDigest = {3, 4};
  result.cacheHit = true;
  result.solveMicros = 55;
  const std::string report =
      obs::reportJson("unit", result.estimate, nullptr);
  const std::string line =
      encodeAnalyzeResponse(9, result, report, /*degradedAdmission=*/true);

  std::string error;
  const auto response = decodeResponse(line, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->id, 9);
  EXPECT_TRUE(response->ok);
  EXPECT_TRUE(response->cacheHit);
  EXPECT_TRUE(response->degradedAdmission);
  EXPECT_EQ(response->boundLo, 7);
  EXPECT_EQ(response->boundHi, 1234);
  EXPECT_EQ(response->solveMicros, 55);
  EXPECT_EQ(response->digest, result.fullDigest.hex());
  EXPECT_EQ(response->raw.find("basisWarmStarted"), nullptr);

  // The embedded report is the obs::reportJson document verbatim, and
  // it carries the pinned schema version as its first field.
  const obs::JsonValue* embedded = response->raw.find("report");
  ASSERT_NE(embedded, nullptr);
  EXPECT_EQ(embedded->intOr("schemaVersion", -1), obs::kReportSchemaVersion);
  EXPECT_EQ(embedded->stringOr("program", ""), "unit");
  EXPECT_EQ(response->raw.intOr("protocolVersion", -1), kProtocolVersion);
}

TEST(ServeProtocol, AnalyzeResponseOmitsDigestsNoCacheRead) {
  // A Bypass request or a cache-less daemon computes no digest; the
  // reply then leaves both digest fields out instead of sending zeros.
  ipet::AnalysisResult result;
  result.program = "unit";
  result.estimate.bound = {7, 1234};
  const std::string report =
      obs::reportJson("unit", result.estimate, nullptr);
  std::string error;
  const auto response = decodeResponse(
      encodeAnalyzeResponse(9, result, report, false), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_TRUE(response->ok);
  EXPECT_EQ(response->boundHi, 1234);
  EXPECT_EQ(response->raw.find("digest"), nullptr);
  EXPECT_EQ(response->raw.find("structuralDigest"), nullptr);
}

TEST(ServeProtocol, ErrorPongStatsAndAckFrames) {
  std::string error;
  const auto err = decodeResponse(
      encodeErrorResponse(4, "analysis", "unknown benchmark 'x'"), &error);
  ASSERT_TRUE(err.has_value()) << error;
  EXPECT_FALSE(err->ok);
  EXPECT_EQ(err->id, 4);
  EXPECT_EQ(err->errorCode, "analysis");
  EXPECT_EQ(err->error, "unknown benchmark 'x'");

  const auto pong = decodeResponse(encodePong(5), &error);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->ok);
  EXPECT_EQ(pong->id, 5);

  ipet::SolveCacheStats cacheStats;
  cacheStats.boundHits = 10;
  cacheStats.boundMisses = 4;
  ServeCounters counters;
  counters.requests = 14;
  counters.overloadAdmissions = 1;
  const auto stats =
      decodeResponse(encodeStatsResponse(6, cacheStats, 3, counters),
                     &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_TRUE(stats->ok);
  const obs::JsonValue* cache = stats->raw.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->intOr("boundHits", 0), 10);
  EXPECT_EQ(cache->intOr("boundMisses", 0), 4);
  EXPECT_EQ(cache->intOr("boundEntries", 0), 3);
  const obs::JsonValue* server = stats->raw.find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->intOr("requests", 0), 14);
  EXPECT_EQ(server->intOr("overloadAdmissions", 0), 1);

  const auto ack = decodeResponse(encodeShutdownAck(7), &error);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->ok);
}

TEST(ServeProtocol, AnalyzeRequestCarriesParameterDeclarations) {
  RequestFrame frame;
  frame.id = 9;
  frame.op = Op::Analyze;
  frame.request.source = "void f() {}";
  frame.request.root = "f";
  frame.request.parameters = {{"N", 0, 64}, {"M", -3, 3}};

  RequestFrame decoded;
  std::string error;
  ASSERT_TRUE(decodeRequest(encodeRequest(frame), &decoded, &error)) << error;
  ASSERT_EQ(decoded.request.parameters.size(), 2u);
  EXPECT_EQ(decoded.request.parameters[0].name, "N");
  EXPECT_EQ(decoded.request.parameters[0].lo, 0);
  EXPECT_EQ(decoded.request.parameters[0].hi, 64);
  EXPECT_EQ(decoded.request.parameters[1].name, "M");
  EXPECT_EQ(decoded.request.parameters[1].lo, -3);
  EXPECT_EQ(decoded.request.parameters[1].hi, 3);

  // An inverted range is a decode error, not a silent drop.
  EXPECT_FALSE(decodeRequest(
      R"({"op":"analyze","id":1,"source":"void f() {}",)"
      R"("params":[{"name":"N","lo":5,"hi":2}]})",
      &decoded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ServeProtocol, EvaluateRequestRoundTrip) {
  RequestFrame frame;
  frame.id = 11;
  frame.op = Op::Evaluate;
  frame.evaluateDigest = "0123456789abcdef0123456789abcdef";
  frame.evaluateParams = {{"N", 5}, {"M", -2}};

  RequestFrame decoded;
  std::string error;
  ASSERT_TRUE(decodeRequest(encodeRequest(frame), &decoded, &error)) << error;
  EXPECT_EQ(decoded.op, Op::Evaluate);
  EXPECT_EQ(decoded.evaluateDigest, frame.evaluateDigest);
  ASSERT_EQ(decoded.evaluateParams.size(), 2u);
  EXPECT_EQ(decoded.evaluateParams[0].first, "N");
  EXPECT_EQ(decoded.evaluateParams[0].second, 5);
  EXPECT_EQ(decoded.evaluateParams[1].first, "M");
  EXPECT_EQ(decoded.evaluateParams[1].second, -2);
}

TEST(ServeProtocol, EvaluateRequestRejectsMalformedFrames) {
  RequestFrame decoded;
  std::string error;
  // Digest too short.
  EXPECT_FALSE(decodeRequest(
      R"({"op":"evaluate","id":1,"digest":"abc","params":{"N":1}})",
      &decoded, &error));
  // Digest with non-hex characters.
  EXPECT_FALSE(decodeRequest(
      R"({"op":"evaluate","id":1,)"
      R"("digest":"zzzz6789abcdef0123456789abcdef01","params":{"N":1}})",
      &decoded, &error));
  // Missing params object.
  EXPECT_FALSE(decodeRequest(
      R"({"op":"evaluate","id":1,)"
      R"("digest":"0123456789abcdef0123456789abcdef"})",
      &decoded, &error));
  // Non-integer parameter value.
  EXPECT_FALSE(decodeRequest(
      R"({"op":"evaluate","id":1,)"
      R"("digest":"0123456789abcdef0123456789abcdef","params":{"N":"x"}})",
      &decoded, &error));
}

TEST(ServeProtocol, EvaluateResponseCarriesTopLevelBound) {
  const std::string digest = "0123456789abcdef0123456789abcdef";
  std::string error;
  const auto response = decodeResponse(
      encodeEvaluateResponse(4, ipet::Interval{20, 577}, digest), &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_TRUE(response->ok);
  EXPECT_EQ(response->id, 4);
  EXPECT_EQ(response->digest, digest);
  EXPECT_EQ(response->boundLo, 20);
  EXPECT_EQ(response->boundHi, 577);
}

TEST(ServeProtocol, AnalyzeResponseEmbedsTheFormula) {
  ipet::AnalysisResult result;
  result.program = "ploop";
  result.estimate.bound = {20, 3439};
  ipet::WcetFormula formula;
  formula.params = {{"N", 0, 64}};
  ipet::FormulaPiece piece;
  piece.region.lo = {0};
  piece.region.hi = {64};
  piece.worst.constant = ipet::Rat::ofInt(47);
  piece.worst.coeff = {ipet::Rat::ofInt(53)};
  piece.best.constant = ipet::Rat::ofInt(20);
  piece.best.coeff = {ipet::Rat::ofInt(0)};
  formula.pieces.push_back(piece);
  result.formula = formula;

  std::string error;
  const auto decoded =
      decodeResponse(encodeAnalyzeResponse(3, result, "{}", false), &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  const obs::JsonValue* embedded = decoded->raw.find("formula");
  ASSERT_NE(embedded, nullptr);
  ASSERT_TRUE(embedded->isObject());
  // The embedded object is byte-compatible with WcetFormula's own
  // codec: re-parse it from the response text and compare exactly.
  std::string parseError;
  const std::optional<ipet::WcetFormula> back =
      ipet::WcetFormula::fromJson(formula.json(), &parseError);
  ASSERT_TRUE(back.has_value()) << parseError;
  EXPECT_EQ(*back, formula);
}

}  // namespace
}  // namespace cinderella::serve
