#include "cinderella/tools/replay_tool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "cinderella/fuzz/generator.hpp"
#include "cinderella/obs/json.hpp"
#include "cinderella/obs/metrics.hpp"
#include "cinderella/obs/prometheus.hpp"
#include "cinderella/serve/client.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/error.hpp"

namespace cinderella::tools {

namespace {

constexpr const char* kReplayUsage = R"(usage: cinderella-replay [options]

Replays a workload against a running cinderella-serve daemon, several
passes over the same inputs, verifying that repeated submissions return
bit-identical bounds and (from the second pass on) hit the daemon's
solve cache.

options:
  --port <N>            daemon port on 127.0.0.1 (required)
  --generate <N>        replay N seeded fuzz-generated programs
  --seed <S>            base seed for --generate (default 1)
  --dir <path>          replay every *.mc file in <path>
  --benchmarks          replay the built-in Table-I benchmark suite
  --repeat <N>          passes over the input list (default 2)
  --jobs <N>            per-request solver threads (default 1)
  --cache-policy <p>    readwrite (default), readonly, or bypass
  --min-hit-rate <X>    exit 1 unless bound hits / lookups >= X
  --latency-json        print one JSON line with per-pass p50/p90/p99
                        request latency and the overall hit rate
  --metrics-out <file>  scrape the daemon's metrics op afterwards and
                        write the Prometheus text exposition ("-" = stdout);
                        exit 1 when the scrape fails the exposition lint
  --flight-out <file>   fetch the daemon's flight recorder afterwards and
                        write the dump envelope ("-" = stdout)
  --retries <N>         retry each request up to N extra times on
                        transport loss (reconnecting) or a typed
                        "overloaded" rejection, with exponential backoff
                        and jitter (default 0 = fail fast)
  --retry-backoff-ms <N> initial retry backoff; doubles per retry
                        (default 25)
  --bounds-out <file>   write one "label lo hi" line per input afterwards
                        ("-" = stdout); a later run can verify against it
  --expect-bounds <file> verify every bound against a previous
                        --bounds-out file; any divergence exits 3
  --shutdown            ask the daemon to shut down afterwards
  --drain               ask the daemon to drain gracefully afterwards
  --help                show this message

exit codes:
  0  success
  1  usage, transport, analysis or hit-rate-gate failure
  2  a repeated input came back with a different bound (cache bug)
  3  a bound diverged from --expect-bounds (crash-recovery bug)
)";

struct ReplayInput {
  std::string label;
  ipet::AnalysisRequest request;
};

/// Client-observed latency samples for one pass over the input list.
struct PassLatency {
  std::int64_t requests = 0;
  std::int64_t cacheHits = 0;
  std::vector<std::int64_t> micros;
};

/// Writes `text` to `path`, with "-" meaning stdout.  Returns false
/// (with a diagnostic on `err`) when the file cannot be written.
bool writeTextOutput(const std::string& path, const std::string& text,
                     std::ostream& out, std::ostream& err,
                     const char* what) {
  if (path == "-") {
    out << text;
    if (text.empty() || text.back() != '\n') out << '\n';
    return true;
  }
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    err << "cinderella-replay: cannot write " << what << " to '" << path
        << "'\n";
    return false;
  }
  file << text;
  if (text.empty() || text.back() != '\n') file << '\n';
  return true;
}

}  // namespace

bool parseReplayArgs(int argc, const char* const* argv,
                     ReplayToolOptions* options, std::ostream& err) {
  auto needValue = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      err << "cinderella-replay: " << flag << " needs an argument\n"
          << kReplayUsage;
      return nullptr;
    }
    return argv[++i];
  };
  auto intValue = [&](int& i, const char* flag, long long lo, long long hi,
                      long long* out) {
    const char* v = needValue(i, flag);
    if (!v) return false;
    char* end = nullptr;
    const long long value = std::strtoll(v, &end, 10);
    if (end == v || *end != '\0' || value < lo || value > hi) {
      err << "cinderella-replay: " << flag << " needs an integer in ["
          << lo << ", " << hi << "]\n";
      return false;
    }
    *out = value;
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long long value = 0;
    if (arg == "--help" || arg == "-h") {
      err << kReplayUsage;
      return false;
    } else if (arg == "--port") {
      if (!intValue(i, "--port", 1, 65535, &value)) return false;
      options->port = static_cast<int>(value);
    } else if (arg == "--generate") {
      if (!intValue(i, "--generate", 0, 100000, &value)) return false;
      options->generate = static_cast<int>(value);
    } else if (arg == "--seed") {
      if (!intValue(i, "--seed", 0, INT64_MAX, &value)) return false;
      options->seed = static_cast<std::uint64_t>(value);
    } else if (arg == "--dir") {
      const char* v = needValue(i, "--dir");
      if (!v) return false;
      options->dir = v;
    } else if (arg == "--benchmarks") {
      options->benchmarks = true;
    } else if (arg == "--repeat") {
      if (!intValue(i, "--repeat", 1, 1000, &value)) return false;
      options->repeat = static_cast<int>(value);
    } else if (arg == "--jobs") {
      if (!intValue(i, "--jobs", 0, 1024, &value)) return false;
      options->jobs = static_cast<int>(value);
    } else if (arg == "--cache-policy") {
      const char* v = needValue(i, "--cache-policy");
      if (!v) return false;
      options->cachePolicy = v;
    } else if (arg == "--min-hit-rate") {
      const char* v = needValue(i, "--min-hit-rate");
      if (!v) return false;
      char* end = nullptr;
      const double rate = std::strtod(v, &end);
      if (end == v || *end != '\0' || rate < 0.0 || rate > 1.0) {
        err << "cinderella-replay: --min-hit-rate needs a number in "
               "[0, 1]\n";
        return false;
      }
      options->minHitRate = rate;
    } else if (arg == "--latency-json") {
      options->latencyJson = true;
    } else if (arg == "--metrics-out") {
      const char* v = needValue(i, "--metrics-out");
      if (!v) return false;
      options->metricsOut = v;
    } else if (arg == "--flight-out") {
      const char* v = needValue(i, "--flight-out");
      if (!v) return false;
      options->flightOut = v;
    } else if (arg == "--retries") {
      if (!intValue(i, "--retries", 0, 1000, &value)) return false;
      options->retries = static_cast<int>(value);
    } else if (arg == "--retry-backoff-ms") {
      if (!intValue(i, "--retry-backoff-ms", 1, 60'000, &value)) return false;
      options->retryBackoffMs = value;
    } else if (arg == "--bounds-out") {
      const char* v = needValue(i, "--bounds-out");
      if (!v) return false;
      options->boundsOut = v;
    } else if (arg == "--expect-bounds") {
      const char* v = needValue(i, "--expect-bounds");
      if (!v) return false;
      options->expectBounds = v;
    } else if (arg == "--shutdown") {
      options->shutdown = true;
    } else if (arg == "--drain") {
      options->drain = true;
    } else {
      err << "cinderella-replay: unknown option '" << arg << "'\n"
          << kReplayUsage;
      return false;
    }
  }
  if (options->port == 0) {
    err << "cinderella-replay: --port is required\n" << kReplayUsage;
    return false;
  }
  if (options->generate == 0 && options->dir.empty() &&
      !options->benchmarks) {
    err << "cinderella-replay: no workload (--generate, --dir or "
           "--benchmarks)\n"
        << kReplayUsage;
    return false;
  }
  return true;
}

int runReplayTool(const ReplayToolOptions& options, std::ostream& out,
                  std::ostream& err) {
  const auto policy = ipet::parseCachePolicy(options.cachePolicy);
  if (!policy) {
    err << "cinderella-replay: unknown cache policy '" << options.cachePolicy
        << "'\n";
    return 1;
  }

  std::vector<ReplayInput> inputs;
  if (options.generate > 0) {
    fuzz::GeneratorOptions generatorOptions;
    generatorOptions.emitConstraints = true;
    fuzz::ProgramGenerator generator(generatorOptions);
    for (int i = 0; i < options.generate; ++i) {
      const fuzz::GeneratedProgram program =
          generator.generate(fuzz::deriveSeed(options.seed,
                                              static_cast<std::uint64_t>(i)));
      ReplayInput input;
      input.label = "fuzz-" + std::to_string(program.seed);
      input.request.label = input.label;
      input.request.source = program.source;
      input.request.root = program.root;
      for (const std::string& c : program.constraints) {
        input.request.constraints.push_back({c, ""});
      }
      inputs.push_back(std::move(input));
    }
  }
  if (!options.dir.empty()) {
    std::error_code ec;
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(options.dir, ec)) {
      if (entry.path().extension() == ".mc") files.push_back(entry.path());
    }
    if (ec) {
      err << "cinderella-replay: cannot read '" << options.dir
          << "': " << ec.message() << "\n";
      return 1;
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      std::ifstream in(path);
      if (!in) {
        err << "cinderella-replay: cannot open '" << path.string() << "'\n";
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      ReplayInput input;
      input.label = path.filename().string();
      input.request.label = input.label;
      input.request.source = buffer.str();
      inputs.push_back(std::move(input));
    }
  }
  if (options.benchmarks) {
    // Resolved daemon-side: the request only carries the name.
    for (const suite::Benchmark& benchmark : suite::allBenchmarks()) {
      ReplayInput input;
      input.label = benchmark.name;
      input.request.benchmark = benchmark.name;
      inputs.push_back(std::move(input));
    }
  }
  if (inputs.empty()) {
    err << "cinderella-replay: the workload is empty\n";
    return 1;
  }
  for (ReplayInput& input : inputs) {
    input.request.cachePolicy = *policy;
    input.request.control.threads = options.jobs;
  }

  // Expected bounds from a previous --bounds-out run (the chaos harness
  // uses this to prove a restarted daemon re-serves identical answers).
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> expected;
  if (!options.expectBounds.empty()) {
    std::ifstream in(options.expectBounds);
    if (!in) {
      err << "cinderella-replay: cannot open --expect-bounds file '"
          << options.expectBounds << "'\n";
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      std::string label;
      std::int64_t lo = 0;
      std::int64_t hi = 0;
      if (!(fields >> label >> lo >> hi)) {
        err << "cinderella-replay: malformed --expect-bounds line: " << line
            << "\n";
        return 1;
      }
      expected[label] = {lo, hi};
    }
  }

  serve::Client client;
  std::string error;
  if (!client.connect(options.port, &error)) {
    err << "cinderella-replay: " << error << "\n";
    return 1;
  }
  if (options.retries > 0) {
    serve::RetryPolicy retry;
    retry.maxAttempts = options.retries + 1;
    retry.initialBackoffMs = options.retryBackoffMs;
    client.setRetryPolicy(retry);
  }

  std::map<std::string, std::pair<std::int64_t, std::int64_t>> firstBounds;
  std::vector<PassLatency> passes;
  std::int64_t hits = 0;
  std::int64_t total = 0;
  for (int pass = 0; pass < options.repeat; ++pass) {
    PassLatency latency;
    for (const ReplayInput& input : inputs) {
      const auto callStart = std::chrono::steady_clock::now();
      const std::optional<serve::Response> response =
          client.analyze(input.request, &error);
      const std::int64_t callMicros =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - callStart)
              .count();
      if (!response) {
        err << "cinderella-replay: " << input.label << ": " << error << "\n";
        return 1;
      }
      if (!response->ok) {
        err << "cinderella-replay: " << input.label << ": daemon error ("
            << response->errorCode << "): " << response->error << "\n";
        return 1;
      }
      ++total;
      ++latency.requests;
      latency.micros.push_back(callMicros);
      if (response->cacheHit) {
        ++hits;
        ++latency.cacheHits;
      }
      const std::pair<std::int64_t, std::int64_t> bound{response->boundLo,
                                                        response->boundHi};
      const auto [it, inserted] = firstBounds.emplace(input.label, bound);
      if (!inserted && it->second != bound) {
        err << "cinderella-replay: " << input.label
            << ": bound changed across passes: [" << it->second.first << ", "
            << it->second.second << "] then [" << bound.first << ", "
            << bound.second << "]\n";
        return 2;
      }
      const auto want = expected.find(input.label);
      if (want != expected.end() && want->second != bound) {
        err << "cinderella-replay: " << input.label
            << ": bound diverged from " << options.expectBounds << ": expected ["
            << want->second.first << ", " << want->second.second << "], got ["
            << bound.first << ", " << bound.second << "]\n";
        return 3;
      }
    }
    out << "pass " << (pass + 1) << "/" << options.repeat << ": "
        << inputs.size() << " request(s), " << latency.cacheHits
        << " cache hit(s)\n";
    passes.push_back(std::move(latency));
  }

  const double hitRate =
      total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  const serve::RetryStats& retryStats = client.retryStats();
  out << "replayed " << inputs.size() << " input(s) x " << options.repeat
      << " pass(es): " << hits << "/" << total << " bound-cache hit(s) ("
      << static_cast<int>(hitRate * 100.0) << "%)";
  if (retryStats.retries > 0) {
    out << ", " << retryStats.retries << " retr"
        << (retryStats.retries == 1 ? "y" : "ies") << " ("
        << retryStats.reconnects << " reconnect(s))";
  }
  out << "\n";

  if (options.latencyJson) {
    obs::JsonWriter w;
    w.beginObject().key("passes").beginArray();
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const PassLatency& pass = passes[i];
      w.beginObject()
          .key("pass")
          .value(static_cast<std::int64_t>(i + 1))
          .key("requests")
          .value(pass.requests)
          .key("cacheHits")
          .value(pass.cacheHits)
          .key("p50Micros")
          .value(obs::percentileOf(pass.micros, 0.50))
          .key("p90Micros")
          .value(obs::percentileOf(pass.micros, 0.90))
          .key("p99Micros")
          .value(obs::percentileOf(pass.micros, 0.99))
          .endObject();
    }
    w.endArray()
        .key("requests")
        .value(total)
        .key("cacheHits")
        .value(hits)
        .key("hitRate")
        .value(hitRate)
        .key("retries")
        .value(retryStats.retries)
        .key("reconnects")
        .value(retryStats.reconnects)
        .endObject();
    out << w.str() << "\n";
  }

  if (!options.boundsOut.empty()) {
    std::ostringstream bounds;
    for (const auto& [label, bound] : firstBounds) {
      bounds << label << ' ' << bound.first << ' ' << bound.second << '\n';
    }
    if (!writeTextOutput(options.boundsOut, bounds.str(), out, err,
                         "bounds")) {
      return 1;
    }
  }

  if (!options.metricsOut.empty()) {
    const std::optional<serve::Response> response = client.metrics(&error);
    if (!response || !response->ok) {
      err << "cinderella-replay: metrics: "
          << (!response ? error : response->error) << "\n";
      return 1;
    }
    const std::string scrape = response->raw.stringOr("prometheus", "");
    if (!writeTextOutput(options.metricsOut, scrape, out, err, "metrics")) {
      return 1;
    }
    if (const std::string lint = obs::prometheusLint(scrape); !lint.empty()) {
      err << "cinderella-replay: metrics scrape is malformed: " << lint
          << "\n";
      return 1;
    }
  }
  if (!options.flightOut.empty()) {
    const std::optional<serve::Response> response =
        client.flightrecorder(&error);
    if (!response || !response->ok) {
      err << "cinderella-replay: flightrecorder: "
          << (!response ? error : response->error) << "\n";
      return 1;
    }
    if (!writeTextOutput(options.flightOut, response->rawText, out, err,
                         "flight recorder dump")) {
      return 1;
    }
  }

  if (options.drain) {
    if (!client.drain(&error)) {
      err << "cinderella-replay: drain: " << error << "\n";
      return 1;
    }
  }
  if (options.shutdown) {
    if (!client.shutdown(&error)) {
      err << "cinderella-replay: shutdown: " << error << "\n";
      return 1;
    }
  }
  if (options.minHitRate > 0.0 && hitRate < options.minHitRate) {
    err << "cinderella-replay: hit rate " << hitRate << " below required "
        << options.minHitRate << "\n";
    return 1;
  }
  return 0;
}

}  // namespace cinderella::tools
