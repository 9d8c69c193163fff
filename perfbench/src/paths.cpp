// The three paths a request takes in production: the in-process
// AnalysisService, the `cinderella` CLI as a process, and the
// cinderella-serve daemon over loopback.  Each pass checks what it got.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "cinderella/serve/client.hpp"
#include "cinderella/serve/server.hpp"
#include "cinderella/support/error.hpp"

extern char** environ;

namespace perfbench {

namespace serve = cinderella::serve;

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

namespace {

std::string boundStr(const ipet::Interval& b) {
  return "[" + std::to_string(b.lo) + ", " + std::to_string(b.hi) + "]";
}

struct ProcessResult {
  int exitCode = -1;
  std::string out;
};

/// Runs argv[0] with stdout captured and stderr discarded; waits for it.
ProcessResult runProcess(const std::vector<std::string>& args) {
  ProcessResult result;
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return result;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int spawned = posix_spawn(&pid, argv[0], &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned == 0) {
    char buffer[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buffer, sizeof buffer)) > 0 ||
           (n < 0 && errno == EINTR)) {
      if (n > 0) result.out.append(buffer, static_cast<std::size_t>(n));
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  close(fds[0]);
  return result;
}

std::vector<std::string> cliArgs(const Unit& unit, const Options& options) {
  std::vector<std::string> args = {options.cinderella};
  if (!unit.request.benchmark.empty()) {
    args.insert(args.end(), {"--benchmark", unit.request.benchmark});
  } else {
    args.insert(args.end(), {unit.sourcePath, "--root", unit.root});
    for (const auto& c : unit.constraints) {
      args.insert(args.end(), {"--constraint", c.text});
    }
  }
  args.insert(args.end(), {"--cache", unit.mode});
  return args;
}

}  // namespace

InprocResult toInprocResult(const ipet::AnalysisResult& result) {
  InprocResult out;
  const ipet::Estimate& e = result.estimate;
  out.bound = e.bound;
  out.stats = e.stats;
  out.pivots = e.stats.totalPivots + e.stats.seedPivots;
  out.exact = e.sound() && !e.timedOut;
  for (const ipet::SetSolveRecord& record : e.setRecords) {
    out.pivots += record.probePivots + record.fallbackPivots;
    out.exact = out.exact && record.verdict == ipet::SetVerdict::Exact;
  }
  return out;
}

void checkAnswer(const Unit& unit, const InprocResult& result,
                 const InprocResult* reference, const char* path,
                 Checks* checks) {
  const std::string where = std::string(path) + " " + unit.label + ": ";
  checks->expect(result.exact, where + "verdict is not exact");
  checks->expect(result.bound.encloses(unit.measured),
                 where + "bound " + boundStr(result.bound) +
                     " does not enclose simulated " + boundStr(unit.measured));
  if (reference != nullptr) {
    checks->expect(result.bound == reference->bound,
                   where + "bound " + boundStr(result.bound) + " != " +
                       boundStr(reference->bound) + " of the first pass");
  }
}

int printBounds(const Workload& workload,
                const std::vector<InprocResult>& reference) {
  int changed = 0;
  for (std::size_t i = 0; i < workload.units.size(); ++i) {
    const Unit& unit = workload.units[i];
    const bool moved = unit.pinned && *unit.pinned != reference[i].bound;
    changed += moved ? 1 : 0;
    std::printf("%-24s bound %-24s simulated %-24s%s\n", unit.label.c_str(),
                boundStr(reference[i].bound).c_str(),
                boundStr(unit.measured).c_str(),
                !unit.pinned ? ""
                : moved      ? (" CHANGED from " + boundStr(*unit.pinned)).c_str()
                             : " pinned");
  }
  return changed;
}

double runInprocPass(const Workload& workload,
                     const ipet::AnalysisService& service,
                     std::vector<InprocResult>* results) {
  results->assign(workload.units.size(), InprocResult{});
  const Clock::time_point start = Clock::now();
  for (int u : workload.order) {
    try {
      (*results)[static_cast<std::size_t>(u)] = toInprocResult(
          service.analyze(workload.units[static_cast<std::size_t>(u)].request));
    } catch (const cinderella::Error& e) {
      std::fprintf(stderr, "perfbench: %s: %s\n",
                   workload.units[static_cast<std::size_t>(u)].label.c_str(),
                   e.what());
    }
  }
  return microsSince(start);
}

std::optional<ipet::Interval> parseCliBound(const std::string& text) {
  const std::string tag = "estimated bound: [";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t end = text.find(']', at);
  if (end == std::string::npos) return std::nullopt;
  const std::string body = text.substr(at + tag.size(), end - at - tag.size());
  // Numbers use ',' as thousands separator; ", " separates lo and hi.
  const std::size_t split = body.find(", ");
  if (split == std::string::npos) return std::nullopt;
  const auto number = [](std::string s) {
    s.erase(std::remove(s.begin(), s.end(), ','), s.end());
    return std::stoll(s);
  };
  try {
    return ipet::Interval{number(body.substr(0, split)),
                          number(body.substr(split + 2))};
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

double runCliPass(const Workload& workload, const Options& options,
                  const std::vector<InprocResult>& reference, Checks* checks) {
  double total = 0.0;
  for (int u : workload.order) {
    const Unit& unit = workload.units[static_cast<std::size_t>(u)];
    const Clock::time_point start = Clock::now();
    const ProcessResult run = runProcess(cliArgs(unit, options));
    total += microsSince(start);
    ++checks->attempted;
    const std::optional<ipet::Interval> bound = parseCliBound(run.out);
    const std::string where = "cli " + unit.label + ": ";
    checks->expect(run.exitCode == 0,
                   where + "exit code " + std::to_string(run.exitCode));
    checks->expect(run.out.find("degraded:") == std::string::npos,
                   where + "verdict is not exact");
    checks->expect(bound.has_value() &&
                       *bound == reference[static_cast<std::size_t>(u)].bound,
                   where + "stdout bound differs from the in-process bound " +
                       boundStr(reference[static_cast<std::size_t>(u)].bound));
  }
  return total;
}

ipet::AnalysisRequest submissionRequest(const Unit& unit, Kind kind) {
  ipet::AnalysisRequest request = unit.request;
  request.cachePolicy = ipet::CachePolicy::ReadWrite;
  if (kind == Kind::Refinement) request.constraints.push_back({kRefinement, ""});
  return request;
}

namespace {

struct Answer {
  bool ok = false;
  bool hit = false;
  bool exact = false;
  ipet::Interval bound;
  double micros = 0.0;
  std::string error;
};

/// One client connection replaying its plan, closed loop.
std::vector<Answer> replay(int port, const Workload& workload,
                           const std::vector<Submission>& plan) {
  std::vector<Answer> answers(plan.size());
  serve::Client client;
  std::string error;
  if (!client.connect(port, &error)) {
    for (Answer& a : answers) a.error = "connect: " + error;
    return answers;
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const ipet::AnalysisRequest request = submissionRequest(
        workload.units[static_cast<std::size_t>(plan[i].unit)], plan[i].kind);
    const Clock::time_point start = Clock::now();
    const std::optional<serve::Response> response =
        client.analyze(request, &error);
    Answer& a = answers[i];
    a.micros = microsSince(start);
    if (!response || !response->ok) {
      a.error = response ? response->error : error;
      continue;
    }
    a.ok = true;
    a.hit = response->cacheHit;
    a.exact = response->sound && !response->timedOut &&
              !response->degradedAdmission;
    a.bound = {response->boundLo, response->boundHi};
  }
  client.close();
  return answers;
}

const char* kindStr(Kind kind) {
  switch (kind) {
    case Kind::First:
      return "first";
    case Kind::Refinement:
      return "refinement";
    case Kind::Repeat:
      return "repeat";
  }
  return "?";
}

}  // namespace

ServeRound runServeRound(const Workload& workload, serve::Server& server,
                         const std::vector<InprocResult>& reference,
                         Checks* checks) {
  server.service().cache().clear();
  std::vector<std::vector<Answer>> answers(workload.connections.size());
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < workload.connections.size(); ++c) {
      clients.emplace_back([&, c] {
        answers[c] = replay(server.port(), workload, workload.connections[c]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  ServeRound round;
  round.wallMicros = microsSince(start);
  for (std::size_t c = 0; c < answers.size(); ++c) {
    for (std::size_t i = 0; i < answers[c].size(); ++i) {
      const Submission& s = workload.connections[c][i];
      const Answer& a = answers[c][i];
      const Unit& unit = workload.units[static_cast<std::size_t>(s.unit)];
      const std::string where =
          std::string("serve ") + kindStr(s.kind) + " " + unit.label + ": ";
      ++checks->attempted;
      checks->expect(a.ok, where + a.error);
      if (!a.ok) continue;
      (a.hit ? round.hitMicros : round.coldMicros).push_back(a.micros);
      checks->expect(a.exact, where + "verdict is not exact");
      checks->expect(a.hit == s.expectHit,
                     where + (a.hit ? "unexpected cache hit"
                                    : "expected a cache hit"));
      checks->expect(
          a.bound == reference[static_cast<std::size_t>(s.unit)].bound,
          where + "bound " + boundStr(a.bound) +
              " differs from the in-process bound " +
              boundStr(reference[static_cast<std::size_t>(s.unit)].bound));
    }
  }
  return round;
}

}  // namespace perfbench
