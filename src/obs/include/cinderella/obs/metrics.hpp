// Metrics registry: named counters and log-scale histograms.
//
// The registry is filled by its owner, never by the solvers: the daemon
// counts requests and stage latencies into its own registry, and the
// CLI's --report-json derives its solver metrics from the Estimate's
// per-set records (see report.hpp's addEstimateMetrics).  src/lp, src/ilp
// and src/support know nothing of it.
//
// Histograms use fixed power-of-two buckets so merging and serialising
// snapshots needs no configuration: bucket 0 counts zero-valued samples
// and bucket i (i >= 1) counts samples in [2^(i-1), 2^i).  That spans
// 1 .. 2^30+ — wide enough for pivot counts, branch-and-bound nodes and
// microsecond latencies alike.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cinderella::obs {

class JsonWriter;

/// Monotonic counter; add() is safe from any thread.
class Counter {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time copy of one histogram's state, detached from the live
/// atomics so it can be diffed, serialised and quantile-queried without
/// racing ongoing observations.
struct HistogramSnapshot {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max = 0;
  std::array<std::int64_t, 32> buckets{};

  /// Approximate value at quantile `q` in [0, 1], derived from the log2
  /// buckets by linear interpolation inside the holding bucket (exact
  /// for bucket boundaries, within a factor of 2 inside).  0 when empty.
  [[nodiscard]] std::int64_t quantile(double q) const;
};

/// Fixed-bucket log2 histogram; observe() is safe from any thread.
class Histogram {
 public:
  static constexpr int kBuckets = 32;

  /// Bucket index of `value`: 0 for values <= 0, else 1 + floor(log2 v),
  /// clamped to kBuckets - 1.
  [[nodiscard]] static int bucketOf(std::int64_t value);

  /// Inclusive lower bound of `bucket`: 0, then 2^(bucket-1).
  [[nodiscard]] static std::int64_t bucketLowerBound(int bucket);

  void observe(std::int64_t value);

  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Largest observed sample (0 before any observation).
  [[nodiscard]] std::int64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::array<std::int64_t, kBuckets> bucketCounts() const;
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Point-in-time copy of a whole registry.  Snapshots are value types:
/// diff two of them (deltaSince) to scope cumulative process-wide
/// metrics to one request or one scrape interval — the registry itself
/// is monotonic and is never reset.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Serialises as {"counters":{...},"histograms":{...}} with derived
  /// p50/p90/p99 per histogram.
  void toJson(JsonWriter* w) const;
  [[nodiscard]] std::string json() const;
};

/// What happened between two snapshots of the same registry (`before`
/// taken first): counter and bucket-wise histogram subtraction.  Metrics
/// absent from `before` are treated as zero there; `max` is carried from
/// `after` (a per-interval max is not recoverable from cumulative
/// state).  This is how per-request numbers in serve logs stay
/// per-request instead of cumulative-since-boot.
[[nodiscard]] MetricsSnapshot deltaSince(const MetricsSnapshot& before,
                                         const MetricsSnapshot& after);

/// Exact percentile of raw samples (nearest-rank): the value at rank
/// ceil(q * n).  Used by the replay/bench latency reports, where the
/// full sample set is available.  0 for an empty vector; `samples` is
/// taken by value and sorted internally.
[[nodiscard]] std::int64_t percentileOf(std::vector<std::int64_t> samples,
                                        double q);

/// Named counters + histograms.  Lookup takes the registry mutex; the
/// returned references stay valid for the registry's lifetime, so hot
/// callers may cache them.  Metric values themselves are lock-free
/// atomics.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Point-in-time copy of every metric (see MetricsSnapshot).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Serialises a snapshot as {"counters":{...},"histograms":{...}} into
  /// an open writer position (caller supplies surrounding structure).
  void toJson(JsonWriter* w) const;
  [[nodiscard]] std::string json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace cinderella::obs
