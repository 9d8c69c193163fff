// Shared declarations of the perfbench binary.
//
// A workload is a list of Units — one (program, cache mode) pair each —
// plus the plan for replaying them against the daemon.  Every request
// goes through a path users run: ipet::AnalysisService::analyze
// in-process, the `cinderella` CLI as a process, or an in-process
// serve::Server over loopback.  The traced run (layers.cpp) additionally
// splits one request into the public functions of each layer and wraps
// each call in an obs::Span from the benchmark's own code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cinderella/ipet/analysis.hpp"

namespace cinderella::serve {
class Server;
}  // namespace cinderella::serve

namespace perfbench {

namespace ipet = cinderella::ipet;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double microsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// The redundant constraint a refinement submission adds (paper
/// Section V: estimate, add a functionality constraint, estimate
/// again).  The root entry block runs once, so the bound cannot move.
inline constexpr const char* kRefinement = "x0 <= 1";

/// One (program, cache mode) pair.
struct Unit {
  /// "recon/ccg", "p17/firstiter".
  std::string label;
  std::string mode;
  /// Base request: `benchmark` for Table I, `source`/`root`/
  /// `constraints` for generated programs; the solve cache bypassed.
  ipet::AnalysisRequest request;
  /// Resolved program (for the traced run, which compiles it itself).
  std::string source;
  std::string root;
  std::vector<ipet::RequestConstraint> constraints;
  /// Generated programs: the file the CLI reads.
  std::string sourcePath;
  /// Simulator-measured [best, worst] cycles — the lower side of the
  /// bound's tightness.
  ipet::Interval measured;
  /// Bound pinned in perfbench/bounds.json, when there is one.
  std::optional<ipet::Interval> pinned;
};

/// One daemon submission of a serve plan.
enum class Kind { First, Refinement, Repeat };

struct Submission {
  int unit = 0;
  Kind kind = Kind::First;
  /// Predicted from the system digests: an earlier submission on the
  /// same connection had the same full digest.
  bool expectHit = false;
};

struct Workload {
  std::string name;
  std::vector<Unit> units;
  /// The order one in-process or CLI pass visits the units.
  std::vector<int> order;
  /// Per client connection, its submissions in send order.  The
  /// connections never share a full digest, so every hit is
  /// deterministic.
  std::vector<std::vector<Submission>> connections;
  /// Serve rounds a measured run makes at least.
  int minRounds = 1;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// serve-mixed corpus seed; --seed orders the requests and the serve
  /// interleaving.
  std::uint64_t corpusSeed = 0;
  std::string cinderella;
  std::string workDir;
  std::string boundsFile;
  /// A few units and a single round: the self-test size.
  bool tiny = false;
  /// Self-test only: corrupt one in-process bound so the checks must
  /// catch it.
  bool plantWrongBound = false;
};

/// Default serve-mixed corpus seed.  777001 is held out: claims are
/// confirmed on it, never tuned on it.
inline constexpr std::uint64_t kDefaultCorpusSeed = 20261016;

/// Failed correctness checks against requests attempted.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Counts a failure (and reports it on stderr) when !ok.
  void expect(bool ok, const std::string& what);
};

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

inline void put(Metrics* m, const std::string& name, double value,
                const char* unit) {
  (*m)[name] = Metric{value, unit};
}

// --- inputs.cpp ---
/// Builds the workload's units, reference bounds and serve plan.
[[nodiscard]] Workload buildWorkload(const Options& options);

// --- paths.cpp ---
/// The in-process answer to one unit's base request.
struct InprocResult {
  ipet::Interval bound;
  ipet::SolveStats stats;
  /// Simplex pivots of every kind: ILP + probe + seed + fallback.
  std::int64_t pivots = 0;
  bool exact = false;
};

/// Checks one unit's answer: exact verdict, encloses the simulator
/// bound, equal to `reference` when given.
void checkAnswer(const Unit& unit, const InprocResult& result,
                 const InprocResult* reference, const char* path,
                 Checks* checks);

[[nodiscard]] InprocResult toInprocResult(const ipet::AnalysisResult& result);

/// Prints one line per unit (bound, simulated bound, pin) to stdout and
/// returns how many units' bounds differ from their pin — a count, not
/// a failure, so a deliberate model change shows up without rejection.
int printBounds(const Workload& workload,
                const std::vector<InprocResult>& reference);

/// One in-process pass over `workload.order`; returns its wall µs.
double runInprocPass(const Workload& workload,
                     const ipet::AnalysisService& service,
                     std::vector<InprocResult>* results);

/// One CLI pass: a `cinderella` process per unit, bound parsed from
/// stdout and compared with `reference`; returns the summed process wall
/// µs.
double runCliPass(const Workload& workload, const Options& options,
                  const std::vector<InprocResult>& reference, Checks* checks);

/// The `estimated bound: [lo, hi] cycles` line of CLI output.
[[nodiscard]] std::optional<ipet::Interval> parseCliBound(
    const std::string& text);

struct ServeRound {
  std::vector<double> coldMicros;
  std::vector<double> hitMicros;
  double wallMicros = 0.0;
};

/// Replays the serve plan once against a daemon whose cache starts
/// empty, checking every response against `reference`.
ServeRound runServeRound(const Workload& workload,
                         cinderella::serve::Server& server,
                         const std::vector<InprocResult>& reference,
                         Checks* checks);

/// The request one submission sends.
[[nodiscard]] ipet::AnalysisRequest submissionRequest(const Unit& unit,
                                                      Kind kind);

// --- layers.cpp ---
/// The traced run: per-layer totals per pass plus counts.
Metrics runTraced(const Workload& workload, const Options& options,
                  cinderella::serve::Server& server, Checks* checks);

// --- stats ---
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);

}  // namespace perfbench
