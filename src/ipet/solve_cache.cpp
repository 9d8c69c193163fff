#include "cinderella/ipet/solve_cache.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "cinderella/support/io.hpp"
#include "cinderella/support/metrics_sink.hpp"

namespace cinderella::ipet {

namespace {

constexpr char kMagic[5] = {'C', 'S', 'N', 'A', 'P'};
/// v1: bounds + bases, no framing.  v2 appends the formula store.  v3
/// reframes each store as a tagged section with its own length and
/// CRC32, so a torn or bit-flipped snapshot recovers to the longest
/// valid prefix of sections instead of being discarded whole.  v4 has
/// the v3 layout without the basis section; the bases of older
/// snapshots are skipped on load.
constexpr std::uint32_t kVersion = 4;
constexpr std::uint32_t kVersionV3 = 3;
constexpr std::uint32_t kVersionV2 = 2;
constexpr std::uint32_t kVersionV1 = 1;
/// Snapshot entry counts / lengths beyond this are corruption, not
/// workloads.
constexpr std::uint32_t kSaneLimit = 1u << 24;

constexpr std::uint32_t kSectionBounds = 1;
/// Written by v3 only; skipped on load.
constexpr std::uint32_t kSectionBases = 2;
constexpr std::uint32_t kSectionFormulas = 3;
/// Empty sentinel section written last.  Without it a truncation that
/// lands exactly on a section boundary would parse as a complete (but
/// shorter) snapshot; with it, any cut before the final byte is
/// reported as incomplete.
constexpr std::uint32_t kSectionEnd = 0;

/// Journal record types: a bound admission and a formula admission.
/// The journal is a bare record stream — `u32 type | u32 len | payload |
/// u32 crc32(type|len|payload)` — with no header; an empty file is an
/// empty journal.  Bound records written before v4 carry a trailing
/// structural digest and seed basis, which replay skips.
constexpr std::uint32_t kRecordBound = 1;
constexpr std::uint32_t kRecordFormula = 2;

void appendU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
  }
}

void appendU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i))));
  }
}

struct Reader {
  std::string_view bytes;
  std::size_t offset = 0;
  bool failed = false;

  [[nodiscard]] std::size_t remaining() const { return bytes.size() - offset; }

  std::uint32_t u32() {
    if (failed || remaining() < 4) {
      failed = true;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes[offset + i]))
           << (8 * i);
    }
    offset += 4;
    return v;
  }

  std::uint64_t u64() {
    if (failed || remaining() < 8) {
      failed = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes[offset + i]))
           << (8 * i);
    }
    offset += 8;
    return v;
  }

  std::string_view raw(std::size_t len) {
    if (failed || remaining() < len) {
      failed = true;
      return {};
    }
    const std::string_view out = bytes.substr(offset, len);
    offset += len;
    return out;
  }
};

void count(std::string_view counter) {
  if (support::MetricsSink* sink = support::metricsSink()) {
    sink->add(counter, 1);
  }
}

// --- Per-entry codecs, shared by snapshot sections and journal records.

void encodeBoundEntry(std::string* out, const Digest& key,
                      const CachedBound& entry) {
  appendU64(out, key.hi);
  appendU64(out, key.lo);
  appendU64(out, static_cast<std::uint64_t>(entry.bound.lo));
  appendU64(out, static_cast<std::uint64_t>(entry.bound.hi));
  appendU32(out, static_cast<std::uint32_t>(entry.constraintSets));
  appendU64(out, static_cast<std::uint64_t>(entry.solveWallMicros));
}

bool decodeBoundEntry(Reader* r, Digest* key, CachedBound* entry) {
  key->hi = r->u64();
  key->lo = r->u64();
  entry->bound.lo = static_cast<std::int64_t>(r->u64());
  entry->bound.hi = static_cast<std::int64_t>(r->u64());
  entry->constraintSets = static_cast<int>(r->u32());
  entry->solveWallMicros = static_cast<std::int64_t>(r->u64());
  return !r->failed;
}

/// Steps over one pre-v4 basis entry (digest, length, CBAS bytes).
bool skipBasisEntry(Reader* r) {
  r->u64();
  r->u64();
  const std::uint32_t len = r->u32();
  if (r->failed || len > kSaneLimit) {
    r->failed = true;
    return false;
  }
  r->raw(len);
  return !r->failed;
}

void encodeFormulaEntry(std::string* out, const Digest& key,
                        const CachedFormula& entry) {
  appendU64(out, key.hi);
  appendU64(out, key.lo);
  appendU64(out, static_cast<std::uint64_t>(entry.solveWallMicros));
  const std::string json = entry.formula.json();
  appendU32(out, static_cast<std::uint32_t>(json.size()));
  *out += json;
}

bool decodeFormulaEntry(Reader* r, Digest* key, CachedFormula* entry) {
  key->hi = r->u64();
  key->lo = r->u64();
  entry->solveWallMicros = static_cast<std::int64_t>(r->u64());
  const std::uint32_t len = r->u32();
  if (r->failed || len > kSaneLimit) {
    r->failed = true;
    return false;
  }
  const std::string_view json = r->raw(len);
  if (r->failed) return false;
  std::optional<WcetFormula> formula = WcetFormula::fromJson(json);
  if (!formula) {
    r->failed = true;
    return false;
  }
  entry->formula = std::move(*formula);
  return true;
}

/// Everything a snapshot/journal parse recovered, staged so a strict
/// load can still reject wholesale and an install is a single swap.
struct StagedEntries {
  std::vector<std::pair<Digest, CachedBound>> bounds;
  std::vector<std::pair<Digest, CachedFormula>> formulas;
};

/// Decodes the `count` entries of one v3/v4 section payload.  The payload
/// already passed its CRC, so any parse failure here means a writer
/// bug, not disk damage — treated as corruption all the same.
bool parseSectionPayload(std::uint32_t tag, std::uint32_t count,
                         std::string_view payload, StagedEntries* staged) {
  Reader r{payload};
  for (std::uint32_t i = 0; i < count; ++i) {
    switch (tag) {
      case kSectionBounds: {
        Digest key{};
        CachedBound entry;
        if (!decodeBoundEntry(&r, &key, &entry)) return false;
        staged->bounds.emplace_back(key, entry);
        break;
      }
      case kSectionFormulas: {
        Digest key{};
        CachedFormula entry;
        if (!decodeFormulaEntry(&r, &key, &entry)) return false;
        staged->formulas.emplace_back(key, std::move(entry));
        break;
      }
      default:
        return false;
    }
  }
  return !r.failed && r.offset == payload.size();
}

/// Parses a v3/v4 body (everything after magic + version) section by
/// section.  Returns true when the whole body was consumed cleanly;
/// false when it stopped at damage — `staged` then holds the sections
/// parsed before the damage (the consistent prefix), and `detail` says
/// what was hit.
bool parseSectionedBody(std::string_view body, StagedEntries* staged,
                 std::string* detail) {
  std::size_t offset = 0;
  bool sawEnd = false;
  while (offset < body.size()) {
    Reader header{body, offset};
    const std::uint32_t tag = header.u32();
    const std::uint32_t entryCount = header.u32();
    const std::uint32_t payloadLen = header.u32();
    if (header.failed || entryCount > kSaneLimit || payloadLen > kSaneLimit ||
        body.size() - header.offset < payloadLen + 4u) {
      *detail = "truncated section header/payload at offset " +
                std::to_string(offset);
      return false;
    }
    const std::string_view payload = body.substr(header.offset, payloadLen);
    Reader crcReader{body, header.offset + payloadLen};
    const std::uint32_t storedCrc = crcReader.u32();
    if (support::io::crc32(payload) != storedCrc) {
      *detail = "section CRC mismatch at offset " + std::to_string(offset);
      return false;
    }
    if (tag == kSectionEnd) {
      if (entryCount != 0 || payloadLen != 0 ||
          crcReader.offset != body.size()) {
        *detail = "malformed end marker at offset " + std::to_string(offset);
        return false;
      }
      sawEnd = true;
      offset = crcReader.offset;
      continue;
    }
    if (tag != kSectionBases) {
      StagedEntries section;
      if (!parseSectionPayload(tag, entryCount, payload, &section)) {
        *detail = "undecodable section at offset " + std::to_string(offset);
        return false;
      }
      for (auto& e : section.bounds) staged->bounds.push_back(std::move(e));
      for (auto& e : section.formulas) {
        staged->formulas.push_back(std::move(e));
      }
    }
    offset = crcReader.offset;
  }
  if (!sawEnd) {
    // A cut exactly on a section boundary leaves a perfectly parseable
    // prefix; only the sentinel distinguishes it from a full snapshot.
    *detail = "missing end-of-snapshot marker";
    return false;
  }
  return true;
}

/// Strict parse of a v1/v2 body (the pre-CRC formats): all-or-nothing,
/// exactly as the original load() behaved.
bool parseLegacyBody(std::string_view body, std::uint32_t version,
                     StagedEntries* staged) {
  Reader r{body};
  const std::uint32_t boundCount = r.u32();
  if (r.failed || boundCount > kSaneLimit) return false;
  staged->bounds.reserve(boundCount);
  for (std::uint32_t i = 0; i < boundCount; ++i) {
    Digest key{};
    CachedBound entry;
    if (!decodeBoundEntry(&r, &key, &entry)) return false;
    staged->bounds.emplace_back(key, entry);
  }
  const std::uint32_t basisCount = r.u32();
  if (r.failed || basisCount > kSaneLimit) return false;
  for (std::uint32_t i = 0; i < basisCount; ++i) {
    if (!skipBasisEntry(&r)) return false;
  }
  if (version >= kVersionV2) {
    const std::uint32_t formulaCount = r.u32();
    if (r.failed || formulaCount > kSaneLimit) return false;
    staged->formulas.reserve(formulaCount);
    for (std::uint32_t i = 0; i < formulaCount; ++i) {
      Digest key{};
      CachedFormula entry;
      if (!decodeFormulaEntry(&r, &key, &entry)) return false;
      staged->formulas.emplace_back(key, std::move(entry));
    }
  }
  return !r.failed && r.offset == body.size();
}

/// Replays a journal byte stream record by record, stopping at the
/// first torn or corrupt record.  Returns true when the whole stream
/// was consumed; `records` counts the ones applied either way.
bool parseJournal(std::string_view bytes, StagedEntries* staged,
                  std::size_t* records, std::string* detail) {
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    Reader header{bytes, offset};
    const std::uint32_t type = header.u32();
    const std::uint32_t payloadLen = header.u32();
    if (header.failed || payloadLen > kSaneLimit ||
        bytes.size() - header.offset < payloadLen + 4u) {
      *detail = "torn journal record at offset " + std::to_string(offset);
      return false;
    }
    // The CRC covers the whole record (type + len + payload), so a
    // bit-flip anywhere in the frame is caught, not just the payload.
    const std::string_view framed =
        bytes.substr(offset, 8u + payloadLen);
    const std::string_view payload = bytes.substr(header.offset, payloadLen);
    Reader crcReader{bytes, header.offset + payloadLen};
    const std::uint32_t storedCrc = crcReader.u32();
    if (support::io::crc32(framed) != storedCrc) {
      *detail = "journal CRC mismatch at offset " + std::to_string(offset);
      return false;
    }
    Reader r{payload};
    if (type == kRecordBound) {
      Digest key{};
      CachedBound entry;
      // A pre-v4 record's trailer (structural digest + seed basis) is
      // laid out exactly like a basis entry.
      if (!decodeBoundEntry(&r, &key, &entry) ||
          (r.remaining() > 0 && !skipBasisEntry(&r))) {
        *detail = "undecodable journal record at offset " +
                  std::to_string(offset);
        return false;
      }
      staged->bounds.emplace_back(key, entry);
    } else if (type == kRecordFormula) {
      Digest key{};
      CachedFormula entry;
      if (!decodeFormulaEntry(&r, &key, &entry)) {
        *detail = "undecodable journal record at offset " +
                  std::to_string(offset);
        return false;
      }
      staged->formulas.emplace_back(key, std::move(entry));
    } else {
      *detail = "unknown journal record type at offset " +
                std::to_string(offset);
      return false;
    }
    ++*records;
    offset = crcReader.offset;
  }
  return true;
}

bool readFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

SolveCache::SolveCache(SolveCacheOptions options)
    : options_(std::move(options)),
      bounds_(options_.capacity),
      formulas_(options_.capacity) {}

std::optional<CachedBound> SolveCache::lookupBound(const Digest& full) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (CachedBound* entry = bounds_.find(full)) {
    ++stats_.boundHits;
    count("solve_cache.bound_hits");
    return *entry;
  }
  ++stats_.boundMisses;
  count("solve_cache.bound_misses");
  return std::nullopt;
}

std::optional<CachedFormula> SolveCache::lookupFormula(
    const Digest& parametric) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (CachedFormula* entry = formulas_.find(parametric)) {
    ++stats_.formulaHits;
    count("solve_cache.formula_hits");
    return *entry;
  }
  ++stats_.formulaMisses;
  count("solve_cache.formula_misses");
  return std::nullopt;
}

void SolveCache::journalLocked(std::uint32_t type, std::string_view payload) {
  if (options_.journalPath.empty()) return;
  std::string record;
  appendU32(&record, type);
  appendU32(&record, static_cast<std::uint32_t>(payload.size()));
  record += payload;
  appendU32(&record, support::io::crc32(record));
  std::string appendError;
  if (support::io::appendDurable(options_.journalPath, record,
                                 &appendError)) {
    ++stats_.journaledInserts;
    count("solve_cache.journaled_inserts");
  } else {
    ++stats_.journalFailures;
    count("solve_cache.journal_failures");
  }
}

void SolveCache::insertFormula(const Digest& parametric, CachedFormula entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled()) return;
  std::string payload;
  encodeFormulaEntry(&payload, parametric, entry);
  const std::int64_t evicted =
      static_cast<std::int64_t>(formulas_.insert(parametric, std::move(entry)));
  stats_.evictions += evicted;
  ++stats_.insertions;
  if (support::MetricsSink* sink = support::metricsSink()) {
    sink->add("solve_cache.insertions", 1);
    if (evicted > 0) sink->add("solve_cache.evictions", evicted);
  }
  journalLocked(kRecordFormula, payload);
}

bool SolveCache::admissible(const Estimate& estimate) {
  return estimate.sound() && !estimate.timedOut && estimate.issues.empty() &&
         estimate.stats.relaxedSets == 0 && estimate.stats.structuralSets == 0;
}

bool SolveCache::insert(const Digest& full, const Estimate& estimate,
                        std::int64_t solveWallMicros) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled()) return false;
  if (!admissible(estimate)) {
    ++stats_.rejectedInserts;
    count("solve_cache.rejected_inserts");
    return false;
  }
  CachedBound entry;
  entry.bound = estimate.bound;
  entry.constraintSets = estimate.stats.constraintSets;
  entry.solveWallMicros = solveWallMicros;
  std::string payload;
  encodeBoundEntry(&payload, full, entry);
  const std::int64_t evicted =
      static_cast<std::int64_t>(bounds_.insert(full, entry));
  stats_.evictions += evicted;
  ++stats_.insertions;
  if (support::MetricsSink* sink = support::metricsSink()) {
    sink->add("solve_cache.insertions", 1);
    if (evicted > 0) sink->add("solve_cache.evictions", evicted);
  }
  journalLocked(kRecordBound, payload);
  return true;
}

SolveCacheStats SolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t SolveCache::boundEntries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bounds_.size();
}

std::size_t SolveCache::formulaEntries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return formulas_.size();
}

void SolveCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  bounds_.clear();
  formulas_.clear();
}

bool SolveCache::save(const std::string& path, std::string* error) const {
  // The mutex is held across the disk write so the snapshot and the
  // journal reset are one atomic step against concurrent inserts: an
  // admission cannot slip between "blob built" and "journal reset" and
  // be silently dropped from both.  save() runs at drain/shutdown, so
  // briefly blocking lookups is fine.
  std::lock_guard<std::mutex> lock(mutex_);
  std::string blob;
  blob.append(kMagic, sizeof(kMagic));
  appendU32(&blob, kVersion);
  auto appendSection = [&blob](std::uint32_t tag, std::size_t entryCount,
                               const std::string& payload) {
    appendU32(&blob, tag);
    appendU32(&blob, static_cast<std::uint32_t>(entryCount));
    appendU32(&blob, static_cast<std::uint32_t>(payload.size()));
    blob += payload;
    appendU32(&blob, support::io::crc32(payload));
  };
  std::string payload;
  bounds_.forEachOldestFirst(
      [&](const Digest& key, const CachedBound& entry) {
        encodeBoundEntry(&payload, key, entry);
      });
  appendSection(kSectionBounds, bounds_.size(), payload);
  payload.clear();
  formulas_.forEachOldestFirst(
      [&](const Digest& key, const CachedFormula& entry) {
        encodeFormulaEntry(&payload, key, entry);
      });
  appendSection(kSectionFormulas, formulas_.size(), payload);
  appendSection(kSectionEnd, 0, {});

  if (!support::io::writeFileAtomic(path, blob, error)) return false;
  if (!options_.journalPath.empty()) {
    // Atomic truncation: the journal's records are now folded into the
    // snapshot that just became durable.  A failure here only risks
    // replaying records that are also in the snapshot — idempotent.
    std::string truncateError;
    (void)support::io::writeFileAtomic(options_.journalPath, {},
                                       &truncateError);
  }
  return true;
}

bool SolveCache::load(const std::string& path, std::string* error) {
  std::string blob;
  if (!readFile(path, &blob)) {
    if (error != nullptr) *error = "cannot open snapshot '" + path + "'";
    return false;
  }
  if (blob.size() < sizeof(kMagic) + 4 ||
      std::string_view(blob.data(), sizeof(kMagic)) !=
          std::string_view(kMagic, sizeof(kMagic))) {
    if (error != nullptr) *error = "snapshot '" + path + "': bad magic";
    return false;
  }
  Reader versionReader{std::string_view(blob).substr(sizeof(kMagic))};
  const std::uint32_t version = versionReader.u32();
  const std::string_view body =
      std::string_view(blob).substr(sizeof(kMagic) + 4);

  StagedEntries staged;
  if (version == kVersion || version == kVersionV3) {
    std::string detail;
    if (!parseSectionedBody(body, &staged, &detail)) {
      if (error != nullptr) {
        *error = "snapshot '" + path + "': " + detail;
      }
      return false;
    }
  } else if (version == kVersionV2 || version == kVersionV1) {
    if (!parseLegacyBody(body, version, &staged)) {
      if (error != nullptr) *error = "snapshot '" + path + "': corrupt";
      return false;
    }
  } else {
    if (error != nullptr) {
      *error = "snapshot '" + path + "': unsupported version";
    }
    return false;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  bounds_.clear();
  formulas_.clear();
  // Oldest-first replay restores the writer's recency order; this
  // cache's own capacity gates how much survives.
  for (auto& [key, entry] : staged.bounds) bounds_.insert(key, entry);
  for (auto& [key, entry] : staged.formulas) {
    formulas_.insert(key, std::move(entry));
  }
  return true;
}

SnapshotRestoreReport SolveCache::restore(const std::string& path) {
  SnapshotRestoreReport report;
  StagedEntries staged;

  std::string blob;
  if (readFile(path, &blob)) {
    report.snapshotFound = true;
    if (blob.size() < sizeof(kMagic) + 4 ||
        std::string_view(blob.data(), sizeof(kMagic)) !=
            std::string_view(kMagic, sizeof(kMagic))) {
      report.complete = false;
      report.detail = "snapshot '" + path + "': bad magic";
    } else {
      Reader versionReader{std::string_view(blob).substr(sizeof(kMagic))};
      const std::uint32_t version = versionReader.u32();
      const std::string_view body =
          std::string_view(blob).substr(sizeof(kMagic) + 4);
      if (version == kVersion || version == kVersionV3) {
        std::string detail;
        if (!parseSectionedBody(body, &staged, &detail)) {
          report.complete = false;
          report.detail = "snapshot '" + path + "': " + detail;
        }
      } else if (version == kVersionV2 || version == kVersionV1) {
        // Pre-CRC formats have no section framing to recover a prefix
        // from; damage discards the snapshot (the journal may still
        // replay on top of nothing).
        StagedEntries legacy;
        if (parseLegacyBody(body, version, &legacy)) {
          staged = std::move(legacy);
        } else {
          report.complete = false;
          report.detail = "snapshot '" + path + "': corrupt";
        }
      } else {
        report.complete = false;
        report.detail = "snapshot '" + path + "': unsupported version";
      }
    }
  }
  report.bounds = staged.bounds.size();
  report.formulas = staged.formulas.size();

  if (!options_.journalPath.empty()) {
    std::string journalBytes;
    if (readFile(options_.journalPath, &journalBytes)) {
      report.journalFound = true;
      std::string detail;
      if (!parseJournal(journalBytes, &staged, &report.journalRecords,
                        &detail)) {
        report.complete = false;
        if (report.detail.empty()) {
          report.detail = "journal '" + options_.journalPath + "': " + detail;
        }
      }
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  bounds_.clear();
  formulas_.clear();
  for (auto& [key, entry] : staged.bounds) bounds_.insert(key, entry);
  for (auto& [key, entry] : staged.formulas) {
    formulas_.insert(key, std::move(entry));
  }
  return report;
}

}  // namespace cinderella::ipet
