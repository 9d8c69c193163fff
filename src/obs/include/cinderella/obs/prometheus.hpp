// Prometheus text-exposition rendering of a MetricsSnapshot, so the
// daemon's metrics can be consumed by any standard scraper (format
// version 0.0.4 — https://prometheus.io/docs/instrumenting/exposition_formats/).
//
// Mapping:
//   * counter "serve.requests"  ->  # TYPE cinderella_serve_requests_total counter
//                                   cinderella_serve_requests_total 42
//   * histogram "serve.wall.micros" -> a native Prometheus histogram:
//     cumulative cinderella_serve_wall_micros_bucket{le="..."} series
//     over the log2 bucket upper bounds, closed by le="+Inf", plus the
//     _sum and _count series.
//
// Names are sanitised to the Prometheus grammar ([a-zA-Z_:][a-zA-Z0-9_:]*)
// by mapping every other byte to '_'.  Counters get the conventional
// "_total" suffix unless the name already ends in a unit-like suffix
// that Prometheus treats as terminal for gauges (callers that want a
// gauge list it in PrometheusOptions::gauges).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cinderella/obs/metrics.hpp"

namespace cinderella::obs {

struct PrometheusOptions {
  /// Prefixed to every metric name (after sanitisation of the rest).
  std::string prefix = "cinderella_";
  /// Counter names (pre-sanitisation, as registered) to expose as
  /// gauges — point-in-time values like inflight or cache entries,
  /// where "_total" and monotonicity would be wrong.
  std::vector<std::string> gauges;
};

/// Sanitises one metric name fragment to the Prometheus grammar.
[[nodiscard]] std::string prometheusName(std::string_view name);

/// Renders the whole snapshot as Prometheus text exposition format.
[[nodiscard]] std::string prometheusText(const MetricsSnapshot& snapshot,
                                         const PrometheusOptions& options = {});

/// Structural validator for Prometheus text exposition: every line is a
/// comment (# HELP / # TYPE) or a `name{labels} value` sample with a
/// valid metric name and a parseable value; every sample's base name was
/// announced by a preceding # TYPE; histogram bucket series are
/// cumulative and end with le="+Inf"; _count matches the +Inf bucket.
/// Returns the empty string when valid, else a "line N: reason"
/// diagnostic.  Used by the exposition tests and by cinderella-replay
/// --metrics-out, which fails on a malformed scrape.
[[nodiscard]] std::string prometheusLint(std::string_view text);

}  // namespace cinderella::obs
