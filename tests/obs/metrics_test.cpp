// Counters, log2-bucket histograms, the registry and its snapshots.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cinderella/obs/json.hpp"
#include "cinderella/obs/metrics.hpp"

namespace cinderella::obs {
namespace {

TEST(Counter, Accumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7);
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds v <= 0; bucket i (i >= 1) holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucketOf(-5), 0);
  EXPECT_EQ(Histogram::bucketOf(0), 0);
  EXPECT_EQ(Histogram::bucketOf(1), 1);
  EXPECT_EQ(Histogram::bucketOf(2), 2);
  EXPECT_EQ(Histogram::bucketOf(3), 2);
  EXPECT_EQ(Histogram::bucketOf(4), 3);
  EXPECT_EQ(Histogram::bucketOf(7), 3);
  EXPECT_EQ(Histogram::bucketOf(8), 4);
  EXPECT_EQ(Histogram::bucketOf(1023), 10);
  EXPECT_EQ(Histogram::bucketOf(1024), 11);
  // Huge values clamp into the last bucket instead of overflowing.
  EXPECT_EQ(Histogram::bucketOf(std::int64_t{1} << 62),
            Histogram::kBuckets - 1);

  EXPECT_EQ(Histogram::bucketLowerBound(0), 0);
  EXPECT_EQ(Histogram::bucketLowerBound(1), 1);
  EXPECT_EQ(Histogram::bucketLowerBound(2), 2);
  EXPECT_EQ(Histogram::bucketLowerBound(3), 4);
  EXPECT_EQ(Histogram::bucketLowerBound(11), 1024);
}

TEST(Histogram, EveryBucketLowerBoundMapsIntoItsOwnBucket) {
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLowerBound(b)), b) << b;
  }
}

TEST(Histogram, ObserveTracksCountSumMaxAndBuckets) {
  Histogram h;
  for (const std::int64_t v : {0, 1, 3, 3, 100}) h.observe(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 107);
  EXPECT_EQ(h.max(), 100);
  const auto buckets = h.bucketCounts();
  EXPECT_EQ(buckets[0], 1);                           // the 0
  EXPECT_EQ(buckets[1], 1);                           // the 1
  EXPECT_EQ(buckets[2], 2);                           // the two 3s
  EXPECT_EQ(buckets[Histogram::bucketOf(100)], 1);    // the 100
}

TEST(MetricsRegistry, OneMetricPerName) {
  MetricsRegistry registry;
  registry.counter("ilp.solves").add(1);
  registry.counter("ilp.solves").add(2);
  registry.histogram("ilp.pivots").observe(17);
  EXPECT_EQ(&registry.counter("ilp.solves"), &registry.counter("ilp.solves"));
  EXPECT_EQ(registry.counter("ilp.solves").value(), 3);
  EXPECT_EQ(registry.histogram("ilp.pivots").count(), 1);
  EXPECT_EQ(registry.histogram("ilp.pivots").sum(), 17);
}

TEST(MetricsRegistry, LookupIsStableAcrossThreads) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.counter("shared").add(1);
        registry.histogram("samples").observe(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.counter("shared").value(), 4000);
  EXPECT_EQ(registry.histogram("samples").count(), 4000);
}

TEST(MetricsRegistry, JsonSnapshotIsValid) {
  MetricsRegistry registry;
  registry.counter("ilp.solves").add(2);
  registry.histogram("ilp.nodes").observe(1);
  registry.histogram("ilp.nodes").observe(5);
  const std::string json = registry.json();
  EXPECT_EQ(jsonLint(json), "") << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"ilp.solves\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ilp.nodes\""), std::string::npos);
}

TEST(MetricsSnapshot, CopiesStateAndDetachesFromTheRegistry) {
  MetricsRegistry registry;
  registry.counter("solves").add(3);
  registry.histogram("micros").observe(100);
  registry.histogram("micros").observe(900);
  const MetricsSnapshot snap = registry.snapshot();
  // Mutating the registry after the snapshot must not change it.
  registry.counter("solves").add(7);
  registry.histogram("micros").observe(5000);
  EXPECT_EQ(snap.counters.at("solves"), 3);
  EXPECT_EQ(snap.histograms.at("micros").count, 2);
  EXPECT_EQ(snap.histograms.at("micros").sum, 1000);
  EXPECT_EQ(snap.histograms.at("micros").max, 900);
  EXPECT_EQ(jsonLint(snap.json()), "") << snap.json();
}

TEST(MetricsSnapshot, DeltaSinceScopesCumulativeStateToAnInterval) {
  MetricsRegistry registry;
  registry.counter("requests").add(5);
  registry.histogram("micros").observe(64);
  const MetricsSnapshot before = registry.snapshot();
  registry.counter("requests").add(2);
  registry.counter("errors").add(1);  // born after `before`
  registry.histogram("micros").observe(64);
  registry.histogram("micros").observe(128);
  const MetricsSnapshot delta = deltaSince(before, registry.snapshot());
  EXPECT_EQ(delta.counters.at("requests"), 2);
  EXPECT_EQ(delta.counters.at("errors"), 1);
  EXPECT_EQ(delta.histograms.at("micros").count, 2);
  EXPECT_EQ(delta.histograms.at("micros").sum, 192);
}

TEST(HistogramSnapshot, QuantileIsExactAtBucketBoundsAndZeroWhenEmpty) {
  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0);
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(64);  // all in one bucket
  const HistogramSnapshot snap = h.snapshot();
  const std::int64_t p50 = snap.quantile(0.5);
  // Bucket [64, 128): the estimate must stay inside the holding bucket.
  EXPECT_GE(p50, 64);
  EXPECT_LT(p50, 128);
}

TEST(PercentileOf, NearestRankOnRawSamples) {
  EXPECT_EQ(percentileOf({}, 0.5), 0);
  EXPECT_EQ(percentileOf({42}, 0.5), 42);
  std::vector<std::int64_t> samples;
  for (std::int64_t v = 100; v >= 1; --v) samples.push_back(v);  // unsorted
  EXPECT_EQ(percentileOf(samples, 0.50), 50);
  EXPECT_EQ(percentileOf(samples, 0.90), 90);
  EXPECT_EQ(percentileOf(samples, 0.99), 99);
  EXPECT_EQ(percentileOf(samples, 1.0), 100);
}

}  // namespace
}  // namespace cinderella::obs
