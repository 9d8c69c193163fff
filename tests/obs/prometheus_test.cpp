// Prometheus text exposition: name sanitisation, counter/gauge/histogram
// rendering from a MetricsSnapshot, and the structural linter that
// cinderella-replay --metrics-out runs on every scrape.
#include <gtest/gtest.h>

#include <string>

#include "cinderella/obs/metrics.hpp"
#include "cinderella/obs/prometheus.hpp"

namespace cinderella::obs {
namespace {

TEST(Prometheus, SanitisesNamesToTheMetricGrammar) {
  EXPECT_EQ(prometheusName("serve.requests"), "serve_requests");
  EXPECT_EQ(prometheusName("serve.stage.cache-lookup_micros"),
            "serve_stage_cache_lookup_micros");
  EXPECT_EQ(prometheusName("weird name!"), "weird_name_");
}

TEST(Prometheus, RendersCountersWithTotalSuffixAndTypeLine) {
  MetricsRegistry registry;
  registry.counter("serve.requests").add(42);
  const std::string text = prometheusText(registry.snapshot());
  EXPECT_NE(text.find("# TYPE cinderella_serve_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cinderella_serve_requests_total 42"), std::string::npos)
      << text;
  EXPECT_EQ(prometheusLint(text), "") << text;
}

TEST(Prometheus, GaugeListSuppressesTotalSuffix) {
  MetricsRegistry registry;
  registry.counter("serve.inflight").add(3);
  PrometheusOptions options;
  options.gauges = {"serve.inflight"};
  const std::string text = prometheusText(registry.snapshot(), options);
  EXPECT_NE(text.find("# TYPE cinderella_serve_inflight gauge"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cinderella_serve_inflight 3"), std::string::npos);
  EXPECT_EQ(text.find("_total"), std::string::npos) << text;
  EXPECT_EQ(prometheusLint(text), "") << text;
}

TEST(Prometheus, HistogramsRenderCumulativeBucketsSumAndCount) {
  MetricsRegistry registry;
  registry.histogram("serve.request_micros").observe(3);    // bucket [2, 4)
  registry.histogram("serve.request_micros").observe(100);  // bucket [64, 128)
  const std::string text = prometheusText(registry.snapshot());
  EXPECT_NE(
      text.find("# TYPE cinderella_serve_request_micros histogram"),
      std::string::npos)
      << text;
  // Cumulative: the bucket covering 100 already counts the sample at 3.
  EXPECT_NE(text.find("cinderella_serve_request_micros_bucket{le=\"127\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cinderella_serve_request_micros_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cinderella_serve_request_micros_sum 103"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cinderella_serve_request_micros_count 2"),
            std::string::npos)
      << text;
  EXPECT_EQ(prometheusLint(text), "") << text;
}

TEST(Prometheus, LintCatchesStructuralViolations) {
  // Sample without a preceding # TYPE announcement.
  EXPECT_NE(prometheusLint("orphan_metric 1\n"), "");
  // Invalid metric name (leading digit).
  EXPECT_NE(prometheusLint("# TYPE 9bad counter\n9bad 1\n"), "");
  // Unparseable value.
  EXPECT_NE(prometheusLint("# TYPE m counter\nm forty\n"), "");
  // Histogram whose bucket series is not cumulative.
  EXPECT_NE(prometheusLint("# TYPE h histogram\n"
                           "h_bucket{le=\"1\"} 5\n"
                           "h_bucket{le=\"2\"} 3\n"
                           "h_bucket{le=\"+Inf\"} 5\n"
                           "h_sum 9\nh_count 5\n"),
            "");
  // Histogram with no +Inf closing bucket.
  EXPECT_NE(prometheusLint("# TYPE h histogram\n"
                           "h_bucket{le=\"1\"} 5\n"
                           "h_sum 9\nh_count 5\n"),
            "");
  // _count disagreeing with the +Inf bucket.
  EXPECT_NE(prometheusLint("# TYPE h histogram\n"
                           "h_bucket{le=\"+Inf\"} 5\n"
                           "h_sum 9\nh_count 4\n"),
            "");
  // And a healthy document passes.
  EXPECT_EQ(prometheusLint("# HELP m things\n# TYPE m counter\nm 1\n"), "");
}

TEST(Prometheus, WholeRegistrySnapshotLintsClean) {
  MetricsRegistry registry;
  registry.counter("serve.requests").add(10);
  registry.counter("serve.errors").add(1);
  registry.counter("cache.bound_entries").add(4);
  for (int i = 1; i <= 64; ++i) {
    registry.histogram("serve.request_micros").observe(i * 37);
    registry.histogram("serve.stage.solve_micros").observe(i * 29);
  }
  PrometheusOptions options;
  options.gauges = {"cache.bound_entries"};
  const std::string text = prometheusText(registry.snapshot(), options);
  EXPECT_EQ(prometheusLint(text), "") << text;
}

}  // namespace
}  // namespace cinderella::obs
