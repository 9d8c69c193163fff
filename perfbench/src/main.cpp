// perfbench — the repository benchmark.
//
//   perfbench --workload <table1-fast|table1-ccg|serve-mixed> --seed N
//             --seconds S --trace <0|1> --cinderella <path to CLI>
//             [--work-dir D] [--bounds perfbench/bounds.json]
//             [--corpus-seed N] [--tiny] [--plant-wrong-bound]
//
// --corpus-seed picks the serve-mixed corpus (default 20261016; 777001
// is held out for confirming claims); --tiny runs a few units once (the
// self-test size); --plant-wrong-bound corrupts one answer so the
// self-test can see the checks fail.  table1-ccg (the 13 programs in
// ccg mode) is not in BENCHMARK.json: at ~9 s a round it gets too few
// rounds to be steady on a shared host, but it runs the same way.
//
// Set-up (inputs, simulator reference bounds, daemon start) runs five
// times and is reported as setup_s.  Then, with --trace 0, rounds of
// {in-process pass, CLI pass, daemon round} repeat until S seconds have
// passed; with --trace 1 the traced run of layers.cpp measures every
// layer instead.  Every answer is checked; the last stdout line is one
// JSON object {"correct","attempted","failed","metrics"}, and the exit
// code is nonzero when any check failed.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "cinderella/obs/json.hpp"
#include "cinderella/serve/server.hpp"
#include "cinderella/suite/suite.hpp"

namespace perfbench {
namespace {

namespace serve = cinderella::serve;

constexpr int kSetupRepeats = 5;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --cinderella PATH [--work-dir D] "
               "[--bounds FILE] [--corpus-seed N] [--tiny] "
               "[--plant-wrong-bound]\n",
               message);
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options options;
  options.corpusSeed = kDefaultCorpusSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--cinderella") {
      options.cinderella = value();
    } else if (arg == "--work-dir") {
      options.workDir = value();
    } else if (arg == "--bounds") {
      options.boundsFile = value();
    } else if (arg == "--corpus-seed") {
      options.corpusSeed = std::stoull(value());
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--plant-wrong-bound") {
      options.plantWrongBound = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (options.cinderella.empty()) usage("--cinderella is required");
  if (options.workDir.empty()) options.workDir = ".";
  return options;
}

std::unique_ptr<serve::Server> startServer(const Workload& workload) {
  serve::ServerOptions serverOptions;
  serverOptions.poolThreads = 2;
  // Room for every admission of a round: no eviction, so the hits are
  // exactly the planned ones.
  serverOptions.cacheEntries = 4 * workload.units.size() + 16;
  serverOptions.benchmarkResolver = cinderella::suite::benchmarkResolver();
  auto server = std::make_unique<serve::Server>(std::move(serverOptions));
  std::string error;
  if (!server->start(&error)) {
    throw std::runtime_error("server start failed: " + error);
  }
  return server;
}

/// Geometric mean over units of estimated hi / simulator-measured hi.
double pessimism(const Workload& workload,
                 const std::vector<InprocResult>& reference) {
  double logSum = 0.0;
  for (std::size_t i = 0; i < workload.units.size(); ++i) {
    logSum += std::log(static_cast<double>(reference[i].bound.hi) /
                       static_cast<double>(workload.units[i].measured.hi));
  }
  return std::exp(logSum / static_cast<double>(workload.units.size()));
}

Metrics measure(const Workload& workload, const Options& options,
                serve::Server& server, Checks* checks) {
  ipet::AnalysisServiceOptions serviceOptions;
  serviceOptions.benchmarkResolver = cinderella::suite::benchmarkResolver();
  const ipet::AnalysisService service(serviceOptions);

  // Rounds of {in-process pass, CLI pass, daemon round} until the time
  // is up, so every path samples the whole run.  A first round shorter
  // than a tenth of the run only warms up.  Each timed round yields one
  // value of every timing metric.
  std::vector<InprocResult> reference;
  std::map<std::string, std::vector<double>> perRound;
  std::size_t coldRequests = 0;
  std::size_t hitRequests = 0;
  int rounds = 0;
  const double budget = options.tiny ? 0.0 : options.seconds * 1e6;
  const Clock::time_point start = Clock::now();
  for (double last = 0.0;; ++rounds) {
    const double elapsed = microsSince(start);
    // Never start a round expected to end more than a tenth past the
    // budget, but always make the minimum rounds.
    if (static_cast<int>(perRound["analyze_ms"].size()) >=
            workload.minRounds &&
        (elapsed + last > 1.1 * budget || elapsed >= budget)) {
      break;
    }
    const Clock::time_point roundStart = Clock::now();
    std::vector<InprocResult> results;
    const double analyzed = runInprocPass(workload, service, &results);
    checks->attempted += static_cast<std::int64_t>(workload.units.size());
    if (reference.empty() && options.plantWrongBound) {
      results[0].bound.hi = workload.units[0].measured.hi - 1;
    }
    for (std::size_t i = 0; i < workload.units.size(); ++i) {
      checkAnswer(workload.units[i], results[i],
                  reference.empty() ? nullptr : &reference[i], "in-process",
                  checks);
    }
    if (reference.empty()) reference = results;
    const double cli = runCliPass(workload, options, reference, checks);
    const ServeRound served = runServeRound(workload, server, reference, checks);
    last = microsSince(roundStart);
    if (rounds == 0 && last < budget / 10) continue;
    perRound["analyze_ms"].push_back(analyzed / 1e3);
    perRound["cli_ms"].push_back(cli / 1e3);
    perRound["serve_cold_p50_us"].push_back(percentile(served.coldMicros, 0.5));
    perRound["serve_cold_p99_us"].push_back(
        percentile(served.coldMicros, 0.99));
    perRound["serve_hit_p50_us"].push_back(percentile(served.hitMicros, 0.5));
    perRound["serve_req_per_s"].push_back(
        static_cast<double>(served.coldMicros.size() +
                            served.hitMicros.size()) /
        (served.wallMicros / 1e6));
    coldRequests += served.coldMicros.size();
    hitRequests += served.hitMicros.size();
  }
  printBounds(workload, reference);

  // Every timing is the run's best-quartile round: the lower quartile
  // over rounds (upper for throughput), not the median.  Interference
  // from other tenants of a shared host only ever slows a round, and it
  // comes in spells of seconds that move a median by ten percent or more
  // from run to run; the quartile moves a third as much.
  Metrics m;
  for (const auto& [name, values] : perRound) {
    const bool higherIsBetter = name == "serve_req_per_s";
    put(&m, name, percentile(values, higherIsBetter ? 0.75 : 0.25),
        name.ends_with("_ms") ? "ms" : name.ends_with("_us") ? "us" : "1/s");
  }
  put(&m, "wcet_pessimism", pessimism(workload, reference), "ratio");
  const std::vector<double>& passes = perRound["analyze_ms"];
  std::fprintf(stderr,
               "perfbench: %s: %d rounds, %zu timed (in-process pass ms "
               "min %.2f median %.2f max %.2f; %zu cold + %zu hit daemon "
               "requests)\n",
               workload.name.c_str(), rounds, passes.size(),
               percentile(passes, 0), median(passes), percentile(passes, 1),
               coldRequests, hitRequests);
  return m;
}

std::string resultLine(const Checks& checks, const Metrics& metrics) {
  cinderella::obs::JsonWriter w;
  w.beginObject()
      .key("correct")
      .value(checks.failed == 0)
      .key("attempted")
      .value(checks.attempted)
      .key("failed")
      .value(checks.failed)
      .key("metrics")
      .beginObject();
  for (const auto& [name, metric] : metrics) {
    w.key(name).beginObject().key("value").value(metric.value).key("unit")
        .value(metric.unit)
        .endObject();
  }
  w.endObject().endObject();
  return w.str();
}

int run(int argc, char** argv) {
  const Options options = parseOptions(argc, argv);
  std::filesystem::create_directories(options.workDir);

  std::vector<double> setupSeconds;
  Workload workload;
  std::unique_ptr<serve::Server> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server) server->stop();
    server.reset();
    const Clock::time_point start = Clock::now();
    workload = buildWorkload(options);
    server = startServer(workload);
    setupSeconds.push_back(microsSince(start) / 1e6);
  }

  Checks checks;
  Metrics metrics;
  if (options.trace) {
    metrics = runTraced(workload, options, *server, &checks);
  } else {
    metrics = measure(workload, options, *server, &checks);
    put(&metrics, "setup_s", median(setupSeconds), "s");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    put(&metrics, "peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
        "MB");
  }
  server->stop();
  if (options.trace) {
    put(&metrics, "error_rate",
        checks.attempted > 0 ? static_cast<double>(checks.failed) /
                                   static_cast<double>(checks.attempted)
                             : 1.0,
        "ratio");
  }
  std::printf("%s\n", resultLine(checks, metrics).c_str());
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
