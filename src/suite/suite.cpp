#include "cinderella/suite/suite.hpp"

#include <array>
#include <iterator>
#include <mutex>
#include <optional>

#include "cinderella/support/error.hpp"
#include "cinderella/support/text.hpp"

namespace cinderella::suite {

int Benchmark::sourceLines() const {
  int lines = 0;
  for (const auto& line : splitLines(source)) {
    // Count non-blank lines, like the paper's "Lines" column counts
    // statements rather than raw file length.
    for (const char c : line) {
      if (c != ' ' && c != '\t') {
        ++lines;
        break;
      }
    }
  }
  return lines;
}

int lineOf(std::string_view source, std::string_view needle) {
  const auto lines = splitLines(source);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find(needle) != std::string::npos) {
      return static_cast<int>(i) + 1;
    }
  }
  throw AnalysisError("lineOf: \"" + std::string(needle) +
                      "\" not found in benchmark source");
}

sim::GlobalPatch patchInts(std::string name,
                           const std::vector<std::int64_t>& v) {
  sim::GlobalPatch patch;
  patch.name = std::move(name);
  patch.words.reserve(v.size());
  for (const std::int64_t x : v) patch.words.push_back(sim::encodeInt(x));
  return patch;
}

sim::GlobalPatch patchFloats(std::string name, const std::vector<double>& v) {
  sim::GlobalPatch patch;
  patch.name = std::move(name);
  patch.words.reserve(v.size());
  for (const double x : v) patch.words.push_back(sim::encodeFloat(x));
  return patch;
}

namespace {

constexpr BenchmarkEntry kTable[] = {
    {"check_data", makeCheckData},
    {"fft", makeFft},
    {"piksrt", makePiksrt},
    {"des", makeDes},
    {"line", makeLine},
    {"circle", makeCircle},
    {"jpeg_fdct_islow", makeJpegFdct},
    {"jpeg_idct_islow", makeJpegIdct},
    {"recon", makeRecon},
    {"fullsearch", makeFullsearch},
    {"whetstone", makeWhetstone},
    {"dhry", makeDhry},
    {"matgen", makeMatgen},
};
constexpr std::size_t kTableSize = std::size(kTable);

/// The benchmark named `name`, built on its first lookup (once, even
/// when threads race to it); nullptr when no table entry has the name.
const Benchmark* findBenchmark(std::string_view name) {
  struct Slot {
    std::once_flag once;
    std::optional<Benchmark> benchmark;
  };
  static std::array<Slot, kTableSize> slots;
  for (std::size_t i = 0; i < kTableSize; ++i) {
    if (kTable[i].name != name) continue;
    Slot& slot = slots[i];
    std::call_once(slot.once, [&] { slot.benchmark = kTable[i].make(); });
    return &*slot.benchmark;
  }
  return nullptr;
}

}  // namespace

std::span<const BenchmarkEntry> benchmarkTable() { return kTable; }

const std::vector<Benchmark>& allBenchmarks() {
  static const std::vector<Benchmark> benchmarks = [] {
    std::vector<Benchmark> all;
    all.reserve(kTableSize);
    for (const BenchmarkEntry& entry : kTable) {
      all.push_back(*findBenchmark(entry.name));
    }
    return all;
  }();
  return benchmarks;
}

const Benchmark& benchmarkByName(std::string_view name) {
  if (const Benchmark* b = findBenchmark(name)) return *b;
  throw AnalysisError("unknown benchmark '" + std::string(name) + "'");
}

ipet::ProgramResolver benchmarkResolver() {
  return [](const std::string& name)
             -> std::optional<ipet::ResolvedProgram> {
    const Benchmark* b = findBenchmark(name);
    if (b == nullptr) return std::nullopt;
    ipet::ResolvedProgram program;
    program.source = b->source;
    program.root = b->rootFunction;
    program.constraints.reserve(b->constraints.size());
    for (const Constraint& c : b->constraints) {
      program.constraints.push_back({c.text, c.scope});
    }
    return program;
  };
}

}  // namespace cinderella::suite
