// Workload construction: the units, their simulator-measured reference
// bounds, the pinned bounds, and the seeded serve plan.  All of this is
// set-up work, timed as setup_s and never as a request.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "cinderella/codegen/codegen.hpp"
#include "cinderella/fuzz/generator.hpp"
#include "cinderella/obs/json_parse.hpp"
#include "cinderella/sim/simulator.hpp"
#include "cinderella/suite/suite.hpp"
#include "cinderella/support/text.hpp"

namespace perfbench {

namespace {

namespace codegen = cinderella::codegen;
namespace fuzz = cinderella::fuzz;
namespace sim = cinderella::sim;
namespace suite = cinderella::suite;

/// Generated programs in the serve-mixed corpus (each in 3 modes).
constexpr int kCorpusPrograms = 100;
constexpr int kTinyPrograms = 4;
/// Random simulator runs per generated program.
constexpr int kSimTrials = 6;
/// serve-mixed: bound-cache hits and misses a measured run needs.
constexpr int kMinServeSamples = 1000;

const std::vector<const char*>& modesOf(const std::string& workload) {
  static const std::vector<const char*> fast = {"allmiss", "firstiter"};
  static const std::vector<const char*> ccg = {"ccg"};
  static const std::vector<const char*> all = {"allmiss", "firstiter", "ccg"};
  if (workload == "table1-fast") return fast;
  if (workload == "table1-ccg") return ccg;
  return all;
}

/// Fisher-Yates with the repository's own generator, so an order is the
/// same on every platform for one seed.
template <typename T>
void shuffle(std::vector<T>* items, cinderella::Xorshift64* rng) {
  for (std::size_t i = items->size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng->range(0, static_cast<std::int64_t>(i) - 1));
    std::swap((*items)[i - 1], (*items)[j]);
  }
}

/// Paper Experiment 2: cold-cache run on the worst-case data, warm-cache
/// run on the best-case data.
ipet::Interval measureTable1(const suite::Benchmark& bench,
                             const codegen::CompileResult& compiled) {
  const auto root = compiled.module.findFunction(bench.rootFunction);
  if (!root) throw std::runtime_error("no root in " + bench.name);
  sim::Simulator simulator(compiled.module);
  sim::SimOptions worst;
  worst.patches = bench.worstData;
  const std::int64_t hi = simulator.run(*root, {}, worst).cycles;
  sim::SimOptions best;
  best.patches = bench.bestData;
  (void)simulator.run(*root, {}, best);  // prime the cache
  best.coldCache = false;
  const std::int64_t lo = simulator.run(*root, {}, best).cycles;
  return {lo, hi};
}

/// Seeded random arguments and integer globals, as the fuzz oracle
/// drives generated programs; returns [min, max] cycles over the runs.
ipet::Interval measureGenerated(const codegen::CompileResult& compiled,
                                const std::string& rootName,
                                std::uint64_t seed) {
  const auto root = compiled.module.findFunction(rootName);
  if (!root) throw std::runtime_error("generated program has no root");
  sim::Simulator simulator(compiled.module);
  cinderella::Xorshift64 rng(seed);
  const int params = compiled.module.function(*root).numParams;
  ipet::Interval range{INT64_MAX, 0};
  for (int trial = 0; trial < kSimTrials; ++trial) {
    std::vector<std::int64_t> args;
    for (int a = 0; a < params; ++a) args.push_back(rng.range(-20, 20));
    sim::SimOptions options;
    for (const auto& global : compiled.module.globals()) {
      if (global.isFloat) continue;
      std::vector<std::uint64_t> words(static_cast<std::size_t>(global.size));
      for (auto& w : words) w = sim::encodeInt(rng.range(-50, 50));
      options.patches.push_back({global.name, std::move(words)});
    }
    const std::int64_t cycles = simulator.run(*root, args, options).cycles;
    range.lo = std::min(range.lo, cycles);
    range.hi = std::max(range.hi, cycles);
  }
  return range;
}

/// {"recon/ccg": [lo, hi], ...}; a missing file pins nothing.
std::map<std::string, ipet::Interval> readPins(const std::string& path) {
  std::map<std::string, ipet::Interval> pins;
  if (path.empty()) return pins;
  std::ifstream in(path);
  if (!in) return pins;
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const auto doc = cinderella::obs::jsonParse(text.str(), &error);
  const cinderella::obs::JsonValue* table =
      doc ? doc->find("bounds") : nullptr;
  if (table == nullptr || !table->isObject()) {
    throw std::runtime_error("bad pinned-bounds file " + path + ": " + error);
  }
  for (const auto& [label, pair] : table->members) {
    if (!pair.isArray() || pair.items.size() != 2) continue;
    pins[label] = {pair.items[0].intValue, pair.items[1].intValue};
  }
  return pins;
}

std::vector<Unit> table1Units(const Options& options) {
  std::vector<Unit> units;
  const auto& benches = suite::allBenchmarks();
  const std::size_t count =
      options.tiny ? std::min<std::size_t>(3, benches.size()) : benches.size();
  for (std::size_t b = 0; b < count; ++b) {
    const suite::Benchmark& bench = benches[b];
    const codegen::CompileResult compiled =
        codegen::compileSource(bench.source);
    const ipet::Interval measured = measureTable1(bench, compiled);
    for (const char* mode : modesOf(options.workload)) {
      Unit unit;
      unit.mode = mode;
      unit.label = bench.name + "/" + mode;
      unit.request.benchmark = bench.name;
      unit.source = bench.source;
      unit.root = bench.rootFunction;
      for (const auto& c : bench.constraints) {
        unit.constraints.push_back({c.text, c.scope});
      }
      unit.measured = measured;
      units.push_back(std::move(unit));
    }
  }
  return units;
}

std::vector<Unit> corpusUnits(const Options& options) {
  std::vector<Unit> units;
  fuzz::GeneratorOptions generatorOptions;
  generatorOptions.emitConstraints = true;
  fuzz::ProgramGenerator generator(generatorOptions);
  const std::filesystem::path dir =
      std::filesystem::path(options.workDir) /
      ("corpus-" + std::to_string(options.corpusSeed));
  std::filesystem::create_directories(dir);
  const int programs = options.tiny ? kTinyPrograms : kCorpusPrograms;
  for (int i = 0; i < programs; ++i) {
    const std::uint64_t seed =
        fuzz::deriveSeed(options.corpusSeed, static_cast<std::uint64_t>(i));
    const fuzz::GeneratedProgram program = generator.generate(seed);
    const std::string name = "p" + std::to_string(i);
    const std::string path = (dir / (name + ".mc")).string();
    std::ofstream(path) << program.source;
    const codegen::CompileResult compiled =
        codegen::compileSource(program.source);
    const ipet::Interval measured =
        measureGenerated(compiled, program.root, seed);
    for (const char* mode : modesOf(options.workload)) {
      Unit unit;
      unit.mode = mode;
      unit.label = name + "/" + mode;
      unit.request.label = unit.label;
      unit.request.source = program.source;
      unit.request.root = program.root;
      unit.source = program.source;
      unit.root = program.root;
      for (const std::string& c : program.constraints) {
        unit.constraints.push_back({c, ""});
      }
      unit.request.constraints = unit.constraints;
      unit.sourcePath = path;
      unit.measured = measured;
      units.push_back(std::move(unit));
    }
  }
  return units;
}

/// Full digest of a unit's system, with or without the refinement.
ipet::Digest fullDigest(const Unit& unit,
                        const codegen::CompileResult& compiled,
                        bool refined) {
  ipet::AnalyzerOptions aopt;
  aopt.cacheMode = *ipet::parseCacheMode(unit.mode);
  ipet::Analyzer analyzer(compiled, unit.root, aopt);
  for (const auto& c : unit.constraints) analyzer.addConstraint(c.text, c.scope);
  if (refined) analyzer.addConstraint(kRefinement);
  return analyzer.systemDigests().full;
}

/// Splits the units over two connections so no full digest is sent on
/// both (units sharing a digest stay together), then interleaves each
/// unit's three submissions in a seeded order: the first submission
/// always comes before its refinement and its repeat.
std::vector<std::vector<Submission>> planServe(const std::vector<Unit>& units,
                                               cinderella::Xorshift64* rng) {
  std::map<std::string, codegen::CompileResult> compiled;
  std::vector<ipet::Digest> first(units.size());
  std::vector<ipet::Digest> refined(units.size());
  std::vector<int> group(units.size());
  std::iota(group.begin(), group.end(), 0);
  const auto find = [&](int u) {
    while (group[static_cast<std::size_t>(u)] != u) {
      u = group[static_cast<std::size_t>(u)];
    }
    return u;
  };
  std::map<ipet::Digest, int> owner;
  for (std::size_t u = 0; u < units.size(); ++u) {
    auto it = compiled.find(units[u].source);
    if (it == compiled.end()) {
      it = compiled
               .emplace(units[u].source,
                        codegen::compileSource(units[u].source))
               .first;
    }
    first[u] = fullDigest(units[u], it->second, false);
    refined[u] = fullDigest(units[u], it->second, true);
    for (const ipet::Digest& d : {first[u], refined[u]}) {
      const auto [slot, inserted] = owner.emplace(d, static_cast<int>(u));
      if (!inserted) group[static_cast<std::size_t>(find(static_cast<int>(u)))] =
          find(slot->second);
    }
  }

  std::map<int, std::vector<int>> groups;
  for (std::size_t u = 0; u < units.size(); ++u) {
    groups[find(static_cast<int>(u))].push_back(static_cast<int>(u));
  }
  // The split over connections does not depend on the seed, so a
  // round's throughput does not either; only the order is seeded.
  std::vector<std::vector<Submission>> connections(2);
  std::size_t g = 0;
  for (const auto& [root, members] : groups) {
    std::vector<Submission>& plan = connections[g++ % 2];
    for (int u : members) {
      plan.push_back({u, Kind::First, false});
      const bool refineFirst = rng->range(0, 1) == 0;
      plan.push_back({u, refineFirst ? Kind::Refinement : Kind::Repeat, false});
      plan.push_back({u, refineFirst ? Kind::Repeat : Kind::Refinement, false});
    }
  }
  for (std::vector<Submission>& plan : connections) {
    // Interleave: repeatedly take the next pending submission of a
    // random unit on this connection.
    std::map<int, std::vector<Submission>> pending;
    std::vector<int> unitsLeft;
    for (const Submission& s : plan) {
      if (pending[s.unit].empty()) unitsLeft.push_back(s.unit);
      pending[s.unit].push_back(s);
    }
    for (auto& [u, list] : pending) std::reverse(list.begin(), list.end());
    std::vector<Submission> interleaved;
    std::set<ipet::Digest> seen;
    while (!unitsLeft.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng->range(0, static_cast<std::int64_t>(unitsLeft.size()) - 1));
      std::vector<Submission>& list = pending[unitsLeft[pick]];
      Submission s = list.back();
      list.pop_back();
      if (list.empty()) {
        unitsLeft[pick] = unitsLeft.back();
        unitsLeft.pop_back();
      }
      const auto u = static_cast<std::size_t>(s.unit);
      const ipet::Digest& d = s.kind == Kind::Refinement ? refined[u] : first[u];
      s.expectHit = !seen.insert(d).second;
      interleaved.push_back(s);
    }
    plan = std::move(interleaved);
  }
  return connections;
}

}  // namespace

Workload buildWorkload(const Options& options) {
  Workload workload;
  workload.name = options.workload;
  if (options.workload == "table1-fast" || options.workload == "table1-ccg") {
    workload.units = table1Units(options);
  } else if (options.workload == "serve-mixed") {
    workload.units = corpusUnits(options);
  } else {
    throw std::runtime_error("unknown workload '" + options.workload + "'");
  }
  const auto pins = readPins(options.boundsFile);
  for (Unit& unit : workload.units) {
    unit.request.cacheMode = *ipet::parseCacheMode(unit.mode);
    unit.request.cachePolicy = ipet::CachePolicy::Bypass;
    if (const auto it = pins.find(unit.label); it != pins.end()) {
      unit.pinned = it->second;
    }
  }

  cinderella::Xorshift64 rng(options.seed);
  workload.order.resize(workload.units.size());
  std::iota(workload.order.begin(), workload.order.end(), 0);
  shuffle(&workload.order, &rng);
  workload.connections = planServe(workload.units, &rng);

  if (options.workload == "serve-mixed" && !options.tiny) {
    int hits = 0;
    int cold = 0;
    for (const auto& plan : workload.connections) {
      for (const Submission& s : plan) (s.expectHit ? hits : cold) += 1;
    }
    const int fewest = std::max(1, std::min(hits, cold));
    workload.minRounds = (kMinServeSamples + fewest - 1) / fewest;
  }
  return workload;
}

}  // namespace perfbench
