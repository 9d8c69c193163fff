#include "cinderella/serve/protocol.hpp"

#include "cinderella/obs/json.hpp"

namespace cinderella::serve {

namespace {

const char* opStr(Op op) {
  switch (op) {
    case Op::Analyze:
      return "analyze";
    case Op::Evaluate:
      return "evaluate";
    case Op::Ping:
      return "ping";
    case Op::Stats:
      return "stats";
    case Op::Metrics:
      return "metrics";
    case Op::FlightRecorder:
      return "flightrecorder";
    case Op::Health:
      return "health";
    case Op::Drain:
      return "drain";
    case Op::Shutdown:
      return "shutdown";
  }
  return "?";
}

std::optional<Op> parseOp(std::string_view text) {
  if (text == "analyze") return Op::Analyze;
  if (text == "evaluate") return Op::Evaluate;
  if (text == "ping") return Op::Ping;
  if (text == "stats") return Op::Stats;
  if (text == "metrics") return Op::Metrics;
  if (text == "flightrecorder") return Op::FlightRecorder;
  if (text == "health") return Op::Health;
  if (text == "drain") return Op::Drain;
  if (text == "shutdown") return Op::Shutdown;
  return std::nullopt;
}

/// String ids must be short and printable-ASCII: they travel into logs,
/// flight records and Prometheus-adjacent places where control bytes and
/// multi-KB blobs would be hostile.
bool validStringId(std::string_view text) {
  if (text.empty() || text.size() > 128) return false;
  for (const char c : text) {
    if (c < 0x20 || c == 0x7f) return false;
  }
  return true;
}

void beginResponse(obs::JsonWriter* w, const WireId& id, bool ok) {
  w->beginObject().key("id");
  if (id.isString) {
    w->value(id.text);
  } else {
    w->value(id.num);
  }
  w->key("ok").value(ok).key("protocolVersion").value(kProtocolVersion);
}

}  // namespace

const char* opName(Op op) { return opStr(op); }

std::string encodeRequest(const RequestFrame& frame) {
  obs::JsonWriter w;
  w.beginObject().key("op").value(opStr(frame.op));
  if (frame.hasId) {
    w.key("id");
    if (frame.idIsString) {
      w.value(frame.idText);
    } else {
      w.value(frame.id);
    }
  }
  if (frame.op == Op::Analyze) {
    const ipet::AnalysisRequest& r = frame.request;
    if (!r.label.empty()) w.key("label").value(r.label);
    if (!r.benchmark.empty()) {
      w.key("benchmark").value(r.benchmark);
    } else {
      w.key("source").value(r.source);
    }
    if (r.lpInput) w.key("lp").value(true);
    if (!r.root.empty()) w.key("root").value(r.root);
    if (!r.constraints.empty()) {
      w.key("constraints").beginArray();
      for (const ipet::RequestConstraint& c : r.constraints) {
        w.beginObject().key("text").value(c.text);
        if (!c.scope.empty()) w.key("scope").value(c.scope);
        w.endObject();
      }
      w.endArray();
    }
    if (!r.parameters.empty()) {
      w.key("params").beginArray();
      for (const ipet::ParamDecl& p : r.parameters) {
        w.beginObject()
            .key("name")
            .value(p.name)
            .key("lo")
            .value(p.lo)
            .key("hi")
            .value(p.hi)
            .endObject();
      }
      w.endArray();
    }
    w.key("cache").value(ipet::cacheModeStr(r.cacheMode));
    w.key("cachePolicy").value(ipet::cachePolicyStr(r.cachePolicy));
    w.key("jobs").value(r.control.threads);
    if (r.control.deadline.count() > 0) {
      w.key("deadlineMs")
          .value(static_cast<std::int64_t>(r.control.deadline.count()));
    }
    if (r.control.maxNodes > 0) w.key("maxNodes").value(r.control.maxNodes);
    if (r.control.maxMemoryBytes > 0) {
      w.key("maxMemoryMb")
          .value(static_cast<std::int64_t>(r.control.maxMemoryBytes >> 20));
    }
  }
  if (frame.op == Op::Evaluate) {
    w.key("digest").value(frame.evaluateDigest);
    w.key("params").beginObject();
    for (const auto& [name, value] : frame.evaluateParams) {
      w.key(name).value(value);
    }
    w.endObject();
  }
  w.endObject();
  return w.str();
}

bool decodeRequest(std::string_view line, RequestFrame* out,
                   std::string* error, bool* notJson) {
  if (notJson != nullptr) *notJson = false;
  std::string parseError;
  std::optional<obs::JsonValue> doc = obs::jsonParse(line, &parseError);
  if (!doc) {
    if (error != nullptr) *error = "not a JSON frame (" + parseError + ")";
    if (notJson != nullptr) *notJson = true;
    return false;
  }
  if (!doc->isObject()) {
    if (error != nullptr) *error = "frame must be a JSON object";
    if (notJson != nullptr) *notJson = true;
    return false;
  }

  const std::optional<Op> op = parseOp(doc->stringOr("op", "analyze"));
  if (!op) {
    if (error != nullptr) {
      *error = "unknown op '" + doc->stringOr("op", "") + "'";
    }
    return false;
  }
  out->op = *op;
  if (const obs::JsonValue* id = doc->find("id")) {
    if (id->isNumber() && id->isInteger) {
      out->id = id->intValue;
      out->idIsString = false;
      out->hasId = true;
    } else if (id->isString() && validStringId(id->stringValue)) {
      out->idText = id->stringValue;
      out->idIsString = true;
      out->hasId = true;
    } else {
      if (error != nullptr) {
        *error = "\"id\" must be an integer or a short printable string";
      }
      return false;
    }
  } else {
    out->hasId = false;
  }
  if (out->op == Op::Evaluate) {
    out->evaluateDigest = doc->stringOr("digest", "");
    if (out->evaluateDigest.size() != 32 ||
        out->evaluateDigest.find_first_not_of("0123456789abcdef") !=
            std::string::npos) {
      if (error != nullptr) {
        *error = "evaluate needs a 32-hex-char \"digest\"";
      }
      return false;
    }
    const obs::JsonValue* params = doc->find("params");
    if (params == nullptr || !params->isObject() || params->members.empty()) {
      if (error != nullptr) {
        *error = "evaluate needs a non-empty \"params\" object";
      }
      return false;
    }
    for (const auto& [name, value] : params->members) {
      if (!value.isNumber() || !value.isInteger) {
        if (error != nullptr) {
          *error = "evaluate parameter \"" + name + "\" must be an integer";
        }
        return false;
      }
      out->evaluateParams.emplace_back(name, value.intValue);
    }
    return true;
  }
  if (out->op != Op::Analyze) return true;

  ipet::AnalysisRequest& r = out->request;
  r.label = doc->stringOr("label", "");
  r.source = doc->stringOr("source", "");
  r.benchmark = doc->stringOr("benchmark", "");
  r.lpInput = doc->boolOr("lp", false);
  r.root = doc->stringOr("root", "");
  if (const obs::JsonValue* constraints = doc->find("constraints")) {
    if (!constraints->isArray()) {
      if (error != nullptr) *error = "\"constraints\" must be an array";
      return false;
    }
    for (const obs::JsonValue& item : constraints->items) {
      ipet::RequestConstraint c;
      if (item.isString()) {
        c.text = item.stringValue;
      } else if (item.isObject()) {
        c.text = item.stringOr("text", "");
        c.scope = item.stringOr("scope", "");
      }
      if (c.text.empty()) {
        if (error != nullptr) {
          *error = "constraint entries need a non-empty \"text\"";
        }
        return false;
      }
      r.constraints.push_back(std::move(c));
    }
  }
  if (const obs::JsonValue* params = doc->find("params")) {
    if (!params->isArray()) {
      if (error != nullptr) *error = "\"params\" must be an array";
      return false;
    }
    for (const obs::JsonValue& item : params->items) {
      ipet::ParamDecl decl;
      const obs::JsonValue* lo = nullptr;
      const obs::JsonValue* hi = nullptr;
      if (item.isObject()) {
        decl.name = item.stringOr("name", "");
        lo = item.find("lo");
        hi = item.find("hi");
      }
      const bool boundsOk = lo != nullptr && lo->isNumber() && lo->isInteger &&
                            hi != nullptr && hi->isNumber() && hi->isInteger;
      if (decl.name.empty() || !boundsOk) {
        if (error != nullptr) {
          *error =
              "\"params\" entries must be objects with a non-empty "
              "\"name\" and integer \"lo\"/\"hi\"";
        }
        return false;
      }
      decl.lo = lo->intValue;
      decl.hi = hi->intValue;
      if (decl.lo > decl.hi) {
        if (error != nullptr) {
          *error = "parameter \"" + decl.name + "\" has lo > hi";
        }
        return false;
      }
      r.parameters.push_back(std::move(decl));
    }
  }
  const std::string cacheMode = doc->stringOr("cache", "allmiss");
  if (const auto mode = ipet::parseCacheMode(cacheMode)) {
    r.cacheMode = *mode;
  } else {
    if (error != nullptr) *error = "unknown cache mode '" + cacheMode + "'";
    return false;
  }
  const std::string policy = doc->stringOr("cachePolicy", "readwrite");
  if (const auto parsed = ipet::parseCachePolicy(policy)) {
    r.cachePolicy = *parsed;
  } else {
    if (error != nullptr) *error = "unknown cache policy '" + policy + "'";
    return false;
  }
  const std::int64_t jobs = doc->intOr("jobs", 1);
  if (jobs < 0 || jobs > 1024) {
    if (error != nullptr) *error = "\"jobs\" must be in [0, 1024]";
    return false;
  }
  r.control.threads = static_cast<int>(jobs);
  const std::int64_t deadlineMs = doc->intOr("deadlineMs", 0);
  if (deadlineMs < 0 || deadlineMs > 86'400'000) {
    if (error != nullptr) {
      *error = "\"deadlineMs\" must be in [0, 86400000]";
    }
    return false;
  }
  r.control.deadline = std::chrono::milliseconds(deadlineMs);
  const std::int64_t maxNodes = doc->intOr("maxNodes", 0);
  if (maxNodes < 0 || maxNodes > (1ll << 31)) {
    if (error != nullptr) *error = "\"maxNodes\" out of range";
    return false;
  }
  r.control.maxNodes = static_cast<int>(maxNodes);
  const std::int64_t maxMemoryMb = doc->intOr("maxMemoryMb", 0);
  if (maxMemoryMb < 0 || maxMemoryMb > (1 << 20)) {
    if (error != nullptr) {
      *error = "\"maxMemoryMb\" must be in [0, 1048576]";
    }
    return false;
  }
  r.control.maxMemoryBytes = static_cast<std::size_t>(maxMemoryMb) << 20;
  // Older clients may still send "warmStart"; like any unknown field it
  // is ignored.
  return true;
}

std::string encodeAnalyzeResponse(const WireId& id,
                                  const ipet::AnalysisResult& result,
                                  std::string_view report,
                                  bool degradedAdmission,
                                  std::string_view telemetry) {
  obs::JsonWriter w;
  beginResponse(&w, id, true);
  w.key("cacheHit")
      .value(result.cacheHit)
      .key("degradedAdmission")
      .value(degradedAdmission)
      .key("digest")
      .value(result.fullDigest.hex())
      .key("structuralDigest")
      .value(result.structuralDigest.hex())
      .key("wallMicros")
      .value(result.wallMicros)
      .key("solveMicros")
      .value(result.solveMicros);
  if (!telemetry.empty()) w.key("telemetry").rawValue(telemetry);
  if (result.formula) w.key("formula").rawValue(result.formula->json());
  w.key("report").rawValue(report).endObject();
  return w.str();
}

std::string encodeEvaluateResponse(const WireId& id,
                                   const ipet::Interval& bound,
                                   std::string_view digest) {
  obs::JsonWriter w;
  beginResponse(&w, id, true);
  w.key("digest")
      .value(digest)
      .key("bound")
      .beginObject()
      .key("lo")
      .value(bound.lo)
      .key("hi")
      .value(bound.hi)
      .endObject()
      .endObject();
  return w.str();
}

std::string encodeErrorResponse(const WireId& id, std::string_view code,
                                std::string_view message) {
  obs::JsonWriter w;
  beginResponse(&w, id, false);
  w.key("code").value(code).key("error").value(message).endObject();
  return w.str();
}

std::string encodePong(const WireId& id) {
  obs::JsonWriter w;
  beginResponse(&w, id, true);
  w.key("pong").value(true).endObject();
  return w.str();
}

std::string encodeStatsResponse(const WireId& id,
                                const ipet::SolveCacheStats& cache,
                                std::size_t boundEntries,
                                const ServeCounters& server,
                                std::string_view metricsJson) {
  obs::JsonWriter w;
  beginResponse(&w, id, true);
  w.key("cache")
      .beginObject()
      .key("boundHits")
      .value(cache.boundHits)
      .key("boundMisses")
      .value(cache.boundMisses)
      .key("insertions")
      .value(cache.insertions)
      .key("evictions")
      .value(cache.evictions)
      .key("rejectedInserts")
      .value(cache.rejectedInserts)
      .key("boundEntries")
      .value(static_cast<std::int64_t>(boundEntries))
      .endObject();
  w.key("server")
      .beginObject()
      .key("connections")
      .value(server.connections)
      .key("requests")
      .value(server.requests)
      .key("errors")
      .value(server.errors)
      .key("overloadAdmissions")
      .value(server.overloadAdmissions)
      .key("inflight")
      .value(server.inflight)
      .key("rejectedOversize")
      .value(server.rejectedOversize)
      .key("rejectedOverload")
      .value(server.rejectedOverload)
      .key("drainRejections")
      .value(server.drainRejections)
      .key("draining")
      .value(server.draining)
      .endObject();
  if (!metricsJson.empty()) w.key("metrics").rawValue(metricsJson);
  w.endObject();
  return w.str();
}

std::string encodeMetricsResponse(const WireId& id,
                                  std::string_view prometheus) {
  obs::JsonWriter w;
  beginResponse(&w, id, true);
  w.key("contentType")
      .value("text/plain; version=0.0.4")
      .key("prometheus")
      .value(prometheus)
      .endObject();
  return w.str();
}

std::string encodeFlightRecorderResponse(const WireId& id,
                                         std::string_view flightJson) {
  obs::JsonWriter w;
  beginResponse(&w, id, true);
  w.key("flightRecorder").rawValue(flightJson).endObject();
  return w.str();
}

std::string encodeShutdownAck(const WireId& id) {
  obs::JsonWriter w;
  beginResponse(&w, id, true);
  w.key("shuttingDown").value(true).endObject();
  return w.str();
}

std::string encodeHealthResponse(const WireId& id, bool draining,
                                 std::int64_t inflight) {
  obs::JsonWriter w;
  beginResponse(&w, id, true);
  w.key("status")
      .value(draining ? "draining" : "ready")
      .key("draining")
      .value(draining)
      .key("inflight")
      .value(inflight)
      .endObject();
  return w.str();
}

std::string encodeDrainAck(const WireId& id, std::int64_t inflight) {
  obs::JsonWriter w;
  beginResponse(&w, id, true);
  w.key("draining").value(true).key("inflight").value(inflight).endObject();
  return w.str();
}

std::optional<Response> decodeResponse(std::string_view line,
                                       std::string* error) {
  std::string parseError;
  std::optional<obs::JsonValue> doc = obs::jsonParse(line, &parseError);
  if (!doc || !doc->isObject()) {
    if (error != nullptr) {
      *error = !doc ? "not a JSON frame (" + parseError + ")"
                    : "frame must be a JSON object";
    }
    return std::nullopt;
  }
  Response response;
  if (const obs::JsonValue* id = doc->find("id")) {
    if (id->isNumber() && id->isInteger) {
      response.id = id->intValue;
      response.requestId = std::to_string(id->intValue);
    } else if (id->isString()) {
      response.requestId = id->stringValue;
    }
  }
  response.ok = doc->boolOr("ok", false);
  response.errorCode = doc->stringOr("code", "");
  response.error = doc->stringOr("error", "");
  response.cacheHit = doc->boolOr("cacheHit", false);
  response.degradedAdmission = doc->boolOr("degradedAdmission", false);
  response.wallMicros = doc->intOr("wallMicros", 0);
  response.solveMicros = doc->intOr("solveMicros", 0);
  response.digest = doc->stringOr("digest", "");
  response.structuralDigest = doc->stringOr("structuralDigest", "");
  if (const obs::JsonValue* report = doc->find("report")) {
    response.sound = report->boolOr("sound", false);
    response.timedOut = report->boolOr("timedOut", false);
    if (const obs::JsonValue* bound = report->find("bound")) {
      response.boundLo = bound->intOr("lo", 0);
      response.boundHi = bound->intOr("hi", 0);
    }
  } else if (const obs::JsonValue* bound = doc->find("bound")) {
    // Evaluate responses carry the bound at the top level (no report).
    response.boundLo = bound->intOr("lo", 0);
    response.boundHi = bound->intOr("hi", 0);
  }
  response.raw = std::move(*doc);
  return response;
}

}  // namespace cinderella::serve
