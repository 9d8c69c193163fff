#include "cinderella/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "cinderella/obs/json.hpp"

namespace cinderella::obs {

static_assert(std::tuple_size_v<decltype(HistogramSnapshot::buckets)> ==
                  static_cast<std::size_t>(Histogram::kBuckets),
              "HistogramSnapshot::buckets must mirror Histogram::kBuckets");

std::int64_t HistogramSnapshot::quantile(double q) const {
  if (count <= 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, nearest-rank), then walk the
  // cumulative bucket counts to the bucket holding it.
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count))));
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::int64_t inBucket = buckets[b];
    if (inBucket == 0) continue;
    if (seen + inBucket < rank) {
      seen += inBucket;
      continue;
    }
    const std::int64_t lo = Histogram::bucketLowerBound(static_cast<int>(b));
    if (b == 0) return 0;  // bucket 0 holds only zero-valued samples
    // Interpolate linearly inside [lo, 2*lo): bucket b spans
    // [2^(b-1), 2^b).  Cap the top bucket's upper edge at the observed
    // max so an extreme outlier does not inflate the estimate.
    std::int64_t hi = b + 1 < buckets.size() ? lo * 2 : std::max(lo, max);
    if (max > 0) hi = std::min(hi, std::max(lo, max));
    const double frac =
        static_cast<double>(rank - seen) / static_cast<double>(inBucket);
    return lo + static_cast<std::int64_t>(
                    std::llround(static_cast<double>(hi - lo) * frac));
  }
  return max;
}

int Histogram::bucketOf(std::int64_t value) {
  if (value <= 0) return 0;
  const int width = std::bit_width(static_cast<std::uint64_t>(value));
  return width < kBuckets ? width : kBuckets - 1;
}

std::int64_t Histogram::bucketLowerBound(int bucket) {
  return bucket <= 0 ? 0 : std::int64_t{1} << (bucket - 1);
}

void Histogram::observe(std::int64_t value) {
  buckets_[static_cast<std::size_t>(bucketOf(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::int64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::array<std::int64_t, Histogram::kBuckets> Histogram::bucketCounts() const {
  std::array<std::int64_t, kBuckets> out{};
  for (int i = 0; i < kBuckets; ++i) {
    out[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return out;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.count = count();
  snap.sum = sum();
  snap.max = max();
  snap.buckets = bucketCounts();
  return snap;
}

MetricsSnapshot deltaSince(const MetricsSnapshot& before,
                           const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    delta.counters[name] = value - (it != before.counters.end() ? it->second : 0);
  }
  for (const auto& [name, snap] : after.histograms) {
    HistogramSnapshot d = snap;
    const auto it = before.histograms.find(name);
    if (it != before.histograms.end()) {
      d.count -= it->second.count;
      d.sum -= it->second.sum;
      for (std::size_t b = 0; b < d.buckets.size(); ++b) {
        d.buckets[b] -= it->second.buckets[b];
      }
    }
    delta.histograms[name] = d;
  }
  return delta;
}

std::int64_t percentileOf(std::vector<std::int64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const std::size_t rank = static_cast<std::size_t>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(samples.size())))));
  return samples[rank - 1];
}

namespace {

void histogramSnapshotToJson(JsonWriter* w, const HistogramSnapshot& h) {
  w->beginObject();
  w->key("count").value(h.count);
  w->key("sum").value(h.sum);
  w->key("max").value(h.max);
  w->key("p50").value(h.quantile(0.50));
  w->key("p90").value(h.quantile(0.90));
  w->key("p99").value(h.quantile(0.99));
  // Sparse bucket dump: [[lowerBound, count], ...] for non-empty
  // buckets only.
  w->key("buckets").beginArray();
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    if (h.buckets[b] == 0) continue;
    w->beginArray()
        .value(Histogram::bucketLowerBound(static_cast<int>(b)))
        .value(h.buckets[b])
        .endArray();
  }
  w->endArray();
  w->endObject();
}

}  // namespace

void MetricsSnapshot::toJson(JsonWriter* w) const {
  w->beginObject();
  w->key("counters").beginObject();
  for (const auto& [name, value] : counters) w->key(name).value(value);
  w->endObject();
  w->key("histograms").beginObject();
  for (const auto& [name, h] : histograms) {
    w->key(name);
    histogramSnapshotToJson(w, h);
  }
  w->endObject();
  w->endObject();
}

std::string MetricsSnapshot::json() const {
  JsonWriter w;
  toJson(&w);
  return w.str();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Copy the name -> metric pointers under the lock, then read the
  // atomics outside it; metrics are never removed, so the pointers stay
  // valid.
  std::map<std::string, const Counter*> counters;
  std::map<std::string, const Histogram*> histograms;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) counters[name] = c.get();
    for (const auto& [name, h] : histograms_) histograms[name] = h.get();
  }
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters) snap.counters[name] = c->value();
  for (const auto& [name, h] : histograms) snap.histograms[name] = h->snapshot();
  return snap;
}

void MetricsRegistry::toJson(JsonWriter* w) const { snapshot().toJson(w); }

std::string MetricsRegistry::json() const {
  JsonWriter w;
  toJson(&w);
  return w.str();
}

}  // namespace cinderella::obs
