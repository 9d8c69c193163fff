#include "cinderella/serve/flight_recorder.hpp"

#include <algorithm>

#include "cinderella/obs/json.hpp"

namespace cinderella::serve {

void RequestRecord::toJson(obs::JsonWriter* w) const {
  w->beginObject()
      .key("seq")
      .value(static_cast<std::int64_t>(seq))
      .key("id")
      .value(requestId)
      .key("op")
      .value(op);
  if (!label.empty()) w->key("label").value(label);
  w->key("startUnixMicros")
      .value(startUnixMicros)
      .key("durationMicros")
      .value(durationMicros)
      .key("ok")
      .value(ok);
  if (!ok) w->key("code").value(errorCode);
  if (op == "analyze" && ok) {
    w->key("cacheHit")
        .value(cacheHit)
        .key("degradedAdmission")
        .value(degradedAdmission)
        .key("bound")
        .beginObject()
        .key("lo")
        .value(boundLo)
        .key("hi")
        .value(boundHi)
        .endObject();
  }
  w->key("responseBytes").value(responseBytes);
  w->key("stages").beginObject();
  for (int s = 0; s < obs::kRequestStageCount; ++s) {
    const std::int64_t micros = stageMicros[static_cast<std::size_t>(s)];
    if (micros == 0) continue;
    w->key(obs::requestStageStr(static_cast<obs::RequestStage>(s)))
        .value(micros);
  }
  w->endObject();
  w->endObject();
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : perStripe_(std::max<std::size_t>(1, (capacity + kStripes - 1) /
                                             kStripes)) {
  for (Stripe& stripe : stripes_) stripe.ring.resize(perStripe_);
}

void FlightRecorder::record(RequestRecord record) {
  // Sequence numbers start at 1 so a default-constructed slot (seq 0)
  // reads as empty.  The slot is a pure function of the sequence number,
  // so two threads never write the same slot until the ring has wrapped
  // a full stripe — and then the older record was due for eviction
  // anyway.
  const std::uint64_t seq =
      seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.seq = seq;
  Stripe& stripe = stripes_[(seq - 1) % kStripes];
  const std::size_t slot = ((seq - 1) / kStripes) % perStripe_;
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.ring[slot] = std::move(record);
}

std::vector<RequestRecord> FlightRecorder::snapshot() const {
  std::vector<RequestRecord> out;
  out.reserve(capacity());
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const RequestRecord& record : stripe.ring) {
      if (record.seq > 0) out.push_back(record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::string FlightRecorder::json() const {
  const std::vector<RequestRecord> records = snapshot();
  obs::JsonWriter w;
  w.beginObject()
      .key("capacity")
      .value(static_cast<std::int64_t>(capacity()))
      .key("recorded")
      .value(static_cast<std::int64_t>(recorded()))
      .key("records")
      .beginArray();
  for (const RequestRecord& record : records) record.toJson(&w);
  w.endArray().endObject();
  return w.str();
}

}  // namespace cinderella::serve
