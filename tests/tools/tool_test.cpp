// Tests for the `cinderella` command-line driver: the library form, and
// the built executable run as a process.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cinderella/obs/json.hpp"
#include "cinderella/support/fault_injector.hpp"
#include "cinderella/tools/tool.hpp"
#include "test_util/temp_path.hpp"

namespace cinderella::tools {
namespace {

bool parse(std::vector<const char*> args, ToolOptions* options,
           std::string* errText = nullptr) {
  args.insert(args.begin(), "cinderella");
  std::ostringstream err;
  const bool ok = parseArgs(static_cast<int>(args.size()), args.data(),
                            options, err);
  if (errText) *errText = err.str();
  return ok;
}

TEST(ToolArgs, RequiresAnInput) {
  ToolOptions o;
  std::string err;
  EXPECT_FALSE(parse({}, &o, &err));
  EXPECT_NE(err.find("usage"), std::string::npos);
}

TEST(ToolArgs, ParsesBenchmarkAndFlags) {
  ToolOptions o;
  ASSERT_TRUE(parse({"--benchmark", "check_data", "--annotate",
                     "--structural", "--first-iter-split", "--explicit"},
                    &o));
  EXPECT_EQ(o.benchmark, "check_data");
  EXPECT_TRUE(o.annotate);
  EXPECT_TRUE(o.dumpStructural);
  EXPECT_EQ(o.cacheMode, ipet::CacheMode::FirstIterationSplit);
  EXPECT_TRUE(o.compareExplicit);
}

TEST(ToolArgs, ParsesJobs) {
  ToolOptions o;
  ASSERT_TRUE(parse({"--benchmark", "dhry", "--jobs", "4"}, &o));
  EXPECT_EQ(o.jobs, 4);
  o = {};
  ASSERT_TRUE(parse({"--benchmark", "dhry", "--jobs", "0"}, &o));
  EXPECT_EQ(o.jobs, 0);  // 0 = all hardware threads
  o = {};
  EXPECT_FALSE(parse({"--benchmark", "dhry", "--jobs", "-2"}, &o));
  o = {};
  EXPECT_FALSE(parse({"--benchmark", "dhry", "--jobs", "many"}, &o));
  o = {};
  EXPECT_FALSE(parse({"--benchmark", "dhry", "--jobs"}, &o));
}

TEST(ToolArgs, ParsesSourceRootAndConstraints) {
  ToolOptions o;
  ASSERT_TRUE(parse({"prog.mc", "--root", "f", "--constraint", "x1 = 2",
                     "--constraint", "@4 <= 3"},
                    &o));
  EXPECT_EQ(o.sourcePath, "prog.mc");
  EXPECT_EQ(o.root, "f");
  ASSERT_EQ(o.constraints.size(), 2u);
  EXPECT_EQ(o.constraints[1], "@4 <= 3");
}

TEST(ToolArgs, RejectsConflictsAndUnknownFlags) {
  ToolOptions o;
  EXPECT_FALSE(parse({"a.mc", "--benchmark", "fft"}, &o));
  o = {};
  EXPECT_FALSE(parse({"--frobnicate"}, &o));
  o = {};
  EXPECT_FALSE(parse({"a.mc", "b.mc"}, &o));
  o = {};
  EXPECT_FALSE(parse({"a.mc", "--simulate"}, &o));  // needs --benchmark
  o = {};
  EXPECT_FALSE(parse({"--root"}, &o));  // missing value
}

TEST(ToolRun, AnalyzesABenchmarkEndToEnd) {
  ToolOptions o;
  o.benchmark = "check_data";
  o.annotate = true;
  o.dumpStructural = true;
  o.simulate = true;
  std::ostringstream out, err;
  EXPECT_EQ(runTool(o, out, err), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("estimated bound: [53, 1,044] cycles"),
            std::string::npos);
  EXPECT_NE(text.find("while (morecheck)"), std::string::npos);
  EXPECT_NE(text.find("structural constraints of check_data"),
            std::string::npos);
  EXPECT_NE(text.find("bound encloses simulation: yes"), std::string::npos);
}

TEST(ToolRun, AnalyzesASourceFile) {
  const std::string path = test_util::uniqueTempPath("tool_test_prog.mc");
  {
    std::ofstream file(path);
    file << "int main() {\n"
            "  int i; int s; s = 0;\n"
            "  for (i = 0; i < 5; i = i + 1) {\n"
            "    __loopbound(5, 5);\n"
            "    s = s + i;\n"
            "  }\n"
            "  return s;\n"
            "}\n";
  }
  ToolOptions o;
  o.sourcePath = path;
  o.compareExplicit = true;
  std::ostringstream out, err;
  EXPECT_EQ(runTool(o, out, err), 0);
  EXPECT_NE(out.str().find("estimated bound:"), std::string::npos);
  EXPECT_NE(out.str().find("implicit == explicit: yes"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ToolRun, ExtraConstraintTightensFromCommandLine) {
  ToolOptions plain;
  plain.benchmark = "check_data";
  std::ostringstream outPlain, err;
  // Strip the benchmark's own constraints by analysing the raw source.
  // Instead, compare with vs without an extra constraint.
  ToolOptions tightened = plain;
  tightened.constraints.push_back("@8 <= 5");  // loop body at most 5 times
  std::ostringstream outTight;
  EXPECT_EQ(runTool(plain, outPlain, err), 0);
  EXPECT_EQ(runTool(tightened, outTight, err), 0);
  EXPECT_NE(outPlain.str(), outTight.str());
}

TEST(ToolRun, ReportsMissingFile) {
  ToolOptions o;
  o.sourcePath = "/nonexistent/path.mc";
  std::ostringstream out, err;
  EXPECT_EQ(runTool(o, out, err), 1);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

TEST(ToolArgs, ParsesCacheModeAndExports) {
  ToolOptions o;
  ASSERT_TRUE(parse({"--benchmark", "fft", "--cache", "ccg", "--report",
                     "--lp-dump", "--dot"},
                    &o));
  EXPECT_EQ(o.cacheMode, ipet::CacheMode::ConflictGraph);
  EXPECT_TRUE(o.report);
  EXPECT_TRUE(o.lpDump);
  EXPECT_TRUE(o.dot);
  o = {};
  std::string err;
  EXPECT_FALSE(parse({"--benchmark", "fft", "--cache", "bogus"}, &o, &err));
  EXPECT_NE(err.find("unknown --cache mode 'bogus'"), std::string::npos);
}

TEST(ToolRun, ReportAndExportsAppearInOutput) {
  ToolOptions o;
  o.benchmark = "piksrt";
  o.report = true;
  o.lpDump = true;
  o.dot = true;
  std::ostringstream out, err;
  EXPECT_EQ(runTool(o, out, err), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("cost[best,worst]"), std::string::npos);
  EXPECT_NE(text.find("Maximize"), std::string::npos);
  EXPECT_NE(text.find("digraph module"), std::string::npos);
}

TEST(ToolRun, JobsFlagDoesNotChangeOutput) {
  ToolOptions serial;
  serial.benchmark = "dhry";  // 8 constraint sets, 3 surviving
  ToolOptions parallel = serial;
  parallel.jobs = 4;
  std::ostringstream outSerial, outParallel, err;
  EXPECT_EQ(runTool(serial, outSerial, err), 0);
  EXPECT_EQ(runTool(parallel, outParallel, err), 0);
  EXPECT_EQ(outSerial.str(), outParallel.str());
}

TEST(ToolRun, CcgModeTightensBound) {
  ToolOptions allMiss;
  allMiss.benchmark = "check_data";
  ToolOptions ccg = allMiss;
  ccg.cacheMode = ipet::CacheMode::ConflictGraph;
  std::ostringstream outA, outC, err;
  EXPECT_EQ(runTool(allMiss, outA, err), 0);
  EXPECT_EQ(runTool(ccg, outC, err), 0);
  EXPECT_NE(outA.str().find("[53, 1,044]"), std::string::npos);
  EXPECT_NE(outC.str().find("[53, 492]"), std::string::npos);
}

TEST(ToolArgs, ParsesObservabilityFlags) {
  ToolOptions o;
  ASSERT_TRUE(parse({"--benchmark", "piksrt", "--trace-out", "t.json",
                     "--report-json", "r.json", "--verbose-solve"},
                    &o));
  EXPECT_EQ(o.traceOut, "t.json");
  EXPECT_EQ(o.reportJson, "r.json");
  EXPECT_TRUE(o.verboseSolve);
  o = {};
  EXPECT_FALSE(parse({"--benchmark", "piksrt", "--trace-out"}, &o));
  o = {};
  EXPECT_FALSE(parse({"--benchmark", "piksrt", "--report-json"}, &o));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ToolRun, TraceAndReportFilesAreValidJson) {
  const std::string tracePath = test_util::uniqueTempPath("tool_trace.json");
  const std::string reportPath = test_util::uniqueTempPath("tool_report.json");
  ToolOptions o;
  o.benchmark = "dhry";
  o.jobs = 4;
  o.traceOut = tracePath;
  o.reportJson = reportPath;
  std::ostringstream out, err;
  EXPECT_EQ(runTool(o, out, err), 0);

  const std::string trace = slurp(tracePath);
  EXPECT_EQ(obs::jsonLint(trace), "");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ilp-worst\""), std::string::npos);
  EXPECT_NE(trace.find("\"frontend\""), std::string::npos);

  const std::string report = slurp(reportPath);
  EXPECT_EQ(obs::jsonLint(report), "");
  EXPECT_NE(report.find("\"program\":\"dhry\""), std::string::npos);
  EXPECT_NE(report.find("\"sets\""), std::string::npos);
  EXPECT_NE(report.find("\"metrics\""), std::string::npos);

  std::remove(tracePath.c_str());
  std::remove(reportPath.c_str());
}

TEST(ToolRun, ObservabilityFlagsDoNotChangeStdout) {
  ToolOptions plain;
  plain.benchmark = "piksrt";
  ToolOptions observed = plain;
  observed.traceOut = test_util::uniqueTempPath("tool_obs_trace.json");
  observed.reportJson = test_util::uniqueTempPath("tool_obs_report.json");
  std::ostringstream outPlain, outObserved, err;
  EXPECT_EQ(runTool(plain, outPlain, err), 0);
  EXPECT_EQ(runTool(observed, outObserved, err), 0);
  EXPECT_EQ(outPlain.str(), outObserved.str());
  std::remove(observed.traceOut.c_str());
  std::remove(observed.reportJson.c_str());
}

TEST(ToolRun, VerboseSolvePrintsThePerSetTable) {
  ToolOptions o;
  o.benchmark = "dhry";
  o.verboseSolve = true;
  std::ostringstream out, err;
  EXPECT_EQ(runTool(o, out, err), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("per-set solve records"), std::string::npos);
  EXPECT_NE(text.find("worst"), std::string::npos);
  EXPECT_NE(text.find("estimated bound:"), std::string::npos);
}

TEST(ToolRun, UnwritableTracePathFails) {
  ToolOptions o;
  o.benchmark = "piksrt";
  o.traceOut = "/nonexistent-dir/trace.json";
  std::ostringstream out, err;
  EXPECT_EQ(runTool(o, out, err), 1);
  EXPECT_NE(err.str().find("cannot write trace"), std::string::npos);
}

TEST(ToolArgs, ParsesDeadlineAndDegradedPolicy) {
  ToolOptions o;
  ASSERT_TRUE(parse({"--benchmark", "dhry", "--deadline-ms", "250",
                     "--degraded", "forbid"},
                    &o));
  EXPECT_EQ(o.deadlineMs, 250);
  EXPECT_TRUE(o.forbidDegraded);
  o = {};
  ASSERT_TRUE(parse({"--benchmark", "dhry", "--degraded", "allow"}, &o));
  EXPECT_FALSE(o.forbidDegraded);
  o = {};
  EXPECT_FALSE(parse({"--benchmark", "dhry", "--deadline-ms", "0"}, &o));
  o = {};
  EXPECT_FALSE(parse({"--benchmark", "dhry", "--deadline-ms", "-5"}, &o));
  o = {};
  EXPECT_FALSE(parse({"--benchmark", "dhry", "--deadline-ms", "soon"}, &o));
  o = {};
  std::string err;
  EXPECT_FALSE(parse({"--benchmark", "dhry", "--degraded", "maybe"}, &o,
                     &err));
  EXPECT_NE(err.find("--degraded"), std::string::npos);
}

TEST(ToolRun, GenerousDeadlineChangesNothing) {
  ToolOptions plain;
  plain.benchmark = "piksrt";
  ToolOptions bounded = plain;
  bounded.deadlineMs = 60'000;
  std::ostringstream outPlain, outBounded, err;
  EXPECT_EQ(runTool(plain, outPlain, err), 0);
  EXPECT_EQ(runTool(bounded, outBounded, err), 0);
  EXPECT_EQ(outPlain.str(), outBounded.str());
  EXPECT_EQ(outBounded.str().find("degraded:"), std::string::npos);
}

TEST(ToolRun, DegradedRunSummarizesAndForbidExitsThree) {
  // A fault-injected deadline clock degrades every set; the tool must
  // summarize the degradation on stdout and, under --degraded forbid,
  // reject the result with exit code 3.
  support::FaultPlan plan;
  plan.deadlineClockRate = 1.0;
  support::FaultInjector injector{plan};
  support::ScopedFaultInjector install(&injector);

  ToolOptions o;
  o.benchmark = "check_data";
  std::ostringstream out, err;
  EXPECT_EQ(runTool(o, out, err), 0);
  EXPECT_NE(out.str().find("degraded:"), std::string::npos);
  EXPECT_NE(out.str().find("deadline expired"), std::string::npos);

  o.forbidDegraded = true;
  std::ostringstream outForbid, errForbid;
  EXPECT_EQ(runTool(o, outForbid, errForbid), 3);
  EXPECT_NE(errForbid.str().find("--degraded forbid"), std::string::npos);
}

TEST(ToolRun, ReportsBadConstraint) {
  ToolOptions o;
  o.benchmark = "piksrt";
  o.constraints.push_back("this is not a constraint");
  std::ostringstream out, err;
  EXPECT_EQ(runTool(o, out, err), 1);
  EXPECT_FALSE(err.str().empty());
}

// --- The shipped executable, run as a process. ---

struct ProcessResult {
  int exitCode = -1;
  std::string out;
  std::string err;
};

/// Runs the `cinderella` executable built alongside this test with
/// `args`, capturing stdout and stderr through temporary files.
ProcessResult runCli(const std::vector<std::string>& args) {
  const std::string outPath = test_util::uniqueTempPath("cli.out");
  const std::string errPath = test_util::uniqueTempPath("cli.err");
  std::vector<std::string> argvText = {CINDERELLA_CLI_PATH};
  argvText.insert(argvText.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argvText) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, outPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0600);
  posix_spawn_file_actions_addopen(&actions, 2, errPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0600);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, argv[0], &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ProcessResult result;
  if (spawned != 0) {
    ADD_FAILURE() << "cannot spawn " << argv[0];
    return result;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) result.exitCode = WEXITSTATUS(status);
  result.out = slurp(outPath);
  result.err = slurp(errPath);
  std::remove(outPath.c_str());
  std::remove(errPath.c_str());
  return result;
}

TEST(ToolProcess, StdoutMatchesInProcessRun) {
  for (const char* program : {"check_data", "des", "whetstone", "dhry"}) {
    for (const char* mode : {"allmiss", "firstiter", "ccg"}) {
      SCOPED_TRACE(std::string(program) + "/" + mode);
      const std::vector<std::string> args = {
          "--benchmark", program, "--cache", mode, "--report", "--simulate"};
      ToolOptions o;
      std::vector<const char*> argv;
      for (const std::string& a : args) argv.push_back(a.c_str());
      ASSERT_TRUE(parse(argv, &o));
      std::ostringstream out, err;
      ASSERT_EQ(runTool(o, out, err), 0) << err.str();

      const ProcessResult process = runCli(args);
      EXPECT_EQ(process.exitCode, 0) << process.err;
      EXPECT_EQ(process.out, out.str());
    }
  }
}

TEST(ToolProcess, HelpExitsZero) {
  const ProcessResult process = runCli({"--help"});
  EXPECT_EQ(process.exitCode, 0);
  EXPECT_NE(process.out.find("usage: cinderella"), std::string::npos);
}

TEST(ToolProcess, UnknownBenchmarkExitsOne) {
  const ProcessResult process = runCli({"--benchmark", "nosuch"});
  EXPECT_EQ(process.exitCode, 1);
  EXPECT_NE(process.err.find("unknown benchmark"), std::string::npos);
}

}  // namespace
}  // namespace cinderella::tools
