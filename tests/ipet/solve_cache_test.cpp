// SolveCache semantics: hits return the inserted bound bit for bit,
// LRU eviction under capacity pressure, capacity 0 as an off switch,
// the verification-gated admission policy (degraded or fault-injected
// estimates are never cached), and disk snapshot round-trips including
// corruption handling.
//
// Crash safety (the PR-9 contract): the admission journal replays
// everything a kill -9 between snapshots would otherwise lose, save()
// folds the journal into the snapshot atomically, and restore()
// recovers the longest consistent prefix of a snapshot + journal pair
// truncated at ANY byte offset — never a corrupt entry, never a crash.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "cinderella/ipet/solve_cache.hpp"
#include "cinderella/support/fault_injector.hpp"
#include "cinderella/support/io.hpp"
#include "test_util/temp_path.hpp"

namespace cinderella::ipet {
namespace {

Digest key(std::uint64_t n) { return Digest{n, ~n}; }

/// A clean, admissible estimate with a distinctive bound.
Estimate cleanEstimate(std::int64_t lo, std::int64_t hi) {
  Estimate e;
  e.bound = {lo, hi};
  e.stats.constraintSets = 3;
  return e;
}

class SolveCacheTest : public ::testing::Test {
 protected:
  std::string tmpPath_ = test_util::uniqueTempPath("solve_cache_test.csnap");
  void TearDown() override { std::remove(tmpPath_.c_str()); }
};

TEST_F(SolveCacheTest, HitReturnsBitIdenticalBound) {
  SolveCache cache(SolveCacheOptions{4});
  const Estimate e = cleanEstimate(449, 5884);
  ASSERT_TRUE(cache.insert(key(1), e, 777));

  const auto hit = cache.lookupBound(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->bound.lo, 449);
  EXPECT_EQ(hit->bound.hi, 5884);
  EXPECT_EQ(hit->constraintSets, 3);
  EXPECT_EQ(hit->solveWallMicros, 777);

  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.boundHits, 1);
  EXPECT_EQ(stats.insertions, 1);
}

TEST_F(SolveCacheTest, MissesAreCountedAndEmpty) {
  SolveCache cache(SolveCacheOptions{4});
  EXPECT_FALSE(cache.lookupBound(key(9)).has_value());
  EXPECT_FALSE(cache.lookupFormula(key(9)).has_value());
  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.boundMisses, 1);
  EXPECT_EQ(stats.formulaMisses, 1);
}

TEST_F(SolveCacheTest, LruEvictionUnderCapacityPressure) {
  SolveCache cache(SolveCacheOptions{2});
  ASSERT_TRUE(cache.insert(key(1), cleanEstimate(1, 10), 1));
  ASSERT_TRUE(cache.insert(key(2), cleanEstimate(2, 20), 1));
  // Touch 1 so 2 is the LRU victim.
  ASSERT_TRUE(cache.lookupBound(key(1)).has_value());
  ASSERT_TRUE(cache.insert(key(3), cleanEstimate(3, 30), 1));

  EXPECT_FALSE(cache.lookupBound(key(2)).has_value());
  EXPECT_TRUE(cache.lookupBound(key(1)).has_value());
  EXPECT_TRUE(cache.lookupBound(key(3)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.boundEntries(), 2u);
}

TEST_F(SolveCacheTest, CapacityZeroDisablesEverything) {
  SolveCache cache(SolveCacheOptions{0});
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.insert(key(1), cleanEstimate(1, 10), 1));
  EXPECT_FALSE(cache.lookupBound(key(1)).has_value());
  EXPECT_EQ(cache.boundEntries(), 0u);
}

TEST_F(SolveCacheTest, AdmissionGateRejectsDegradedResults) {
  // Each of these is exactly one gate away from admissible.
  Estimate timedOut = cleanEstimate(1, 10);
  timedOut.timedOut = true;
  EXPECT_FALSE(SolveCache::admissible(timedOut));

  Estimate failed = cleanEstimate(1, 10);
  failed.stats.failedSets = 1;  // sound() is false
  EXPECT_FALSE(SolveCache::admissible(failed));

  Estimate relaxed = cleanEstimate(1, 10);
  relaxed.stats.relaxedSets = 1;
  EXPECT_FALSE(SolveCache::admissible(relaxed));

  Estimate structural = cleanEstimate(1, 10);
  structural.stats.structuralSets = 1;
  EXPECT_FALSE(SolveCache::admissible(structural));

  Estimate faulted = cleanEstimate(1, 10);
  faulted.issues.push_back({0, ErrorCode::InjectedFault, "probe", "injected"});
  EXPECT_FALSE(SolveCache::admissible(faulted));

  EXPECT_TRUE(SolveCache::admissible(cleanEstimate(1, 10)));

  SolveCache cache(SolveCacheOptions{4});
  EXPECT_FALSE(cache.insert(key(1), timedOut, 1));
  EXPECT_FALSE(cache.lookupBound(key(1)).has_value());
  EXPECT_EQ(cache.stats().rejectedInserts, 1);
}

TEST_F(SolveCacheTest, EmptyBasisIsNotStored) {
  // The five-argument insert perfbench/ calls ignores the
  // structural digest and the basis: only the bound is stored.
  SolveCache cache(SolveCacheOptions{4});
  ASSERT_TRUE(
      cache.insert(key(1), key(2), cleanEstimate(1, 10), lp::Basis{}, 1));
  EXPECT_EQ(cache.boundEntries(), 1u);
  EXPECT_TRUE(cache.lookupBound(key(1)).has_value());
  EXPECT_FALSE(cache.lookupBound(key(2)).has_value());
  EXPECT_EQ(cache.stats().basisHits, 0);
}

TEST_F(SolveCacheTest, SnapshotRoundTripPreservesEntriesAndRecency) {
  SolveCache cache(SolveCacheOptions{2});
  ASSERT_TRUE(cache.insert(key(1), cleanEstimate(1, 10), 11));
  ASSERT_TRUE(cache.insert(key(2), cleanEstimate(2, 20), 22));
  ASSERT_TRUE(cache.lookupBound(key(1)).has_value());  // 2 is now LRU

  std::string error;
  ASSERT_TRUE(cache.save(tmpPath_, &error)) << error;

  SolveCache restored(SolveCacheOptions{2});
  ASSERT_TRUE(restored.load(tmpPath_, &error)) << error;
  const auto hit = restored.lookupBound(key(2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->bound.hi, 20);
  EXPECT_EQ(hit->solveWallMicros, 22);

  // Recency survived the round trip: key(2) was oldest at save time,
  // but the lookup above refreshed it, so key(1) is evicted next.
  ASSERT_TRUE(restored.insert(key(3), cleanEstimate(3, 30), 1));
  EXPECT_FALSE(restored.lookupBound(key(1)).has_value());
  EXPECT_TRUE(restored.lookupBound(key(3)).has_value());
}

TEST_F(SolveCacheTest, LoadRejectsCorruptionAndKeepsContents) {
  SolveCache cache(SolveCacheOptions{4});
  ASSERT_TRUE(cache.insert(key(1), cleanEstimate(1, 10), 1));
  std::string error;
  ASSERT_TRUE(cache.save(tmpPath_, &error)) << error;

  // Truncate the snapshot mid-record.
  std::string blob;
  {
    std::ifstream in(tmpPath_, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(blob.size(), 8u);
  {
    std::ofstream out(tmpPath_, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size() - 5));
  }

  SolveCache victim(SolveCacheOptions{4});
  ASSERT_TRUE(victim.insert(key(7), cleanEstimate(7, 70), 1));
  EXPECT_FALSE(victim.load(tmpPath_, &error));
  EXPECT_FALSE(error.empty());
  // The failed load left the existing contents untouched.
  EXPECT_TRUE(victim.lookupBound(key(7)).has_value());

  // Bad magic is rejected the same way.
  {
    std::ofstream out(tmpPath_, std::ios::binary | std::ios::trunc);
    out << "NOTASNAPSHOT";
  }
  EXPECT_FALSE(victim.load(tmpPath_, &error));
  EXPECT_TRUE(victim.lookupBound(key(7)).has_value());
}

TEST_F(SolveCacheTest, LoadReappliesOwnCapacity) {
  SolveCache big(SolveCacheOptions{8});
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(big.insert(
        key(i),
        cleanEstimate(static_cast<std::int64_t>(i),
                      static_cast<std::int64_t>(10 * i)),
        1));
  }
  std::string error;
  ASSERT_TRUE(big.save(tmpPath_, &error)) << error;

  SolveCache small(SolveCacheOptions{2});
  ASSERT_TRUE(small.load(tmpPath_, &error)) << error;
  EXPECT_EQ(small.boundEntries(), 2u);
  // The two most recent entries survive.
  EXPECT_TRUE(small.lookupBound(key(4)).has_value());
  EXPECT_TRUE(small.lookupBound(key(5)).has_value());
  EXPECT_FALSE(small.lookupBound(key(1)).has_value());
}

WcetFormula someFormula() {
  WcetFormula f;
  f.params = {{"N", 1, 8}};
  FormulaPiece piece;
  piece.region.lo = {1};
  piece.region.hi = {8};
  piece.worst = {Rat::ofInt(120), {Rat::ofInt(45)}};
  piece.best = {Rat::ofInt(80), {Rat::ofInt(12)}};
  f.pieces.push_back(piece);
  return f;
}

std::string readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class SolveCacheCrashTest : public ::testing::Test {
 protected:
  std::string snap_ = test_util::uniqueTempPath("solve_cache_crash.csnap");
  std::string journal_ = snap_ + ".journal";

  SolveCacheOptions journaled(std::size_t capacity) {
    SolveCacheOptions options;
    options.capacity = capacity;
    options.journalPath = journal_;
    return options;
  }

  void TearDown() override {
    std::remove(snap_.c_str());
    std::remove(journal_.c_str());
    std::remove((snap_ + ".tmp").c_str());
    std::remove((journal_ + ".tmp").c_str());
  }
};

TEST_F(SolveCacheCrashTest, JournalReplaysAdmissionsAfterCrash) {
  // Admissions happen, then the process dies before any save() — the
  // journal alone must reconstruct every admitted entry.
  {
    SolveCache cache(journaled(8));
    ASSERT_TRUE(cache.insert(key(1), cleanEstimate(10, 100), 11));
    ASSERT_TRUE(cache.insert(key(2), cleanEstimate(20, 200), 22));
    cache.insertFormula(key(3), {someFormula(), 33});
    EXPECT_EQ(cache.stats().journaledInserts, 3);
    EXPECT_EQ(cache.stats().journalFailures, 0);
  }  // No save: simulated kill -9.

  SolveCache revived(journaled(8));
  const SnapshotRestoreReport report = revived.restore(snap_);
  EXPECT_FALSE(report.snapshotFound);
  EXPECT_TRUE(report.journalFound);
  EXPECT_TRUE(report.complete) << report.detail;
  EXPECT_EQ(report.journalRecords, 3u);

  const auto hit = revived.lookupBound(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->bound.lo, 10);
  EXPECT_EQ(hit->bound.hi, 100);
  EXPECT_EQ(hit->solveWallMicros, 11);
  ASSERT_TRUE(revived.lookupBound(key(2)).has_value());
  const auto formula = revived.lookupFormula(key(3));
  ASSERT_TRUE(formula.has_value());
  EXPECT_EQ(formula->formula, someFormula());
  EXPECT_EQ(formula->solveWallMicros, 33);
}

TEST_F(SolveCacheCrashTest, SaveFoldsJournalIntoSnapshotAndResetsIt) {
  SolveCache cache(journaled(8));
  ASSERT_TRUE(cache.insert(key(1), cleanEstimate(1, 10), 1));
  std::string error;
  ASSERT_TRUE(cache.save(snap_, &error)) << error;
  EXPECT_TRUE(readFileBytes(journal_).empty())
      << "save() must reset the journal";

  // One more admission after the snapshot: lives only in the journal.
  ASSERT_TRUE(cache.insert(key(2), cleanEstimate(2, 20), 2));
  EXPECT_FALSE(readFileBytes(journal_).empty());

  SolveCache revived(journaled(8));
  const SnapshotRestoreReport report = revived.restore(snap_);
  EXPECT_TRUE(report.snapshotFound);
  EXPECT_TRUE(report.journalFound);
  EXPECT_TRUE(report.complete) << report.detail;
  EXPECT_EQ(report.bounds, 1u);
  EXPECT_EQ(report.journalRecords, 1u);
  EXPECT_TRUE(revived.lookupBound(key(1)).has_value());
  EXPECT_TRUE(revived.lookupBound(key(2)).has_value());
}

TEST_F(SolveCacheCrashTest, TornSnapshotRecoversConsistentPrefixAtEveryByte) {
  // Build a snapshot holding both section kinds, plus a journal with
  // one post-snapshot admission.
  SolveCache cache(journaled(8));
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(cache.insert(key(i),
                             cleanEstimate(static_cast<std::int64_t>(i),
                                           static_cast<std::int64_t>(10 * i)),
                             static_cast<std::int64_t>(i)));
  }
  cache.insertFormula(key(50), {someFormula(), 5});
  std::string error;
  ASSERT_TRUE(cache.save(snap_, &error)) << error;
  ASSERT_TRUE(cache.insert(key(9), cleanEstimate(9, 90), 9));

  const std::string blob = readFileBytes(snap_);
  const std::string journalBytes = readFileBytes(journal_);
  ASSERT_GT(blob.size(), 16u);
  ASSERT_FALSE(journalBytes.empty());

  std::size_t fullyRestored = 0;
  for (std::size_t cut = 0; cut <= blob.size(); ++cut) {
    writeFileBytes(snap_, blob.substr(0, cut));
    writeFileBytes(journal_, journalBytes);
    SolveCache victim(journaled(8));
    const SnapshotRestoreReport report = victim.restore(snap_);
    // Whatever was restored must be bit-identical to what was inserted —
    // a truncation may lose entries but never corrupt one.
    for (std::uint64_t i = 1; i <= 3; ++i) {
      const auto hit = victim.lookupBound(key(i));
      if (hit.has_value()) {
        EXPECT_EQ(hit->bound.lo, static_cast<std::int64_t>(i));
        EXPECT_EQ(hit->bound.hi, static_cast<std::int64_t>(10 * i));
      }
    }
    const auto formula = victim.lookupFormula(key(50));
    if (formula.has_value()) {
      EXPECT_EQ(formula->formula, someFormula());
    }
    // The intact journal replays regardless of snapshot damage.
    EXPECT_EQ(report.journalRecords, 1u) << "cut at byte " << cut;
    const auto replayed = victim.lookupBound(key(9));
    ASSERT_TRUE(replayed.has_value()) << "cut at byte " << cut;
    EXPECT_EQ(replayed->bound.hi, 90);
    if (cut < blob.size()) {
      EXPECT_FALSE(report.complete) << "cut at byte " << cut;
    } else {
      EXPECT_TRUE(report.complete) << report.detail;
      EXPECT_EQ(report.bounds, 3u);
      EXPECT_EQ(report.formulas, 1u);
      ++fullyRestored;
    }
  }
  EXPECT_EQ(fullyRestored, 1u);
}

TEST_F(SolveCacheCrashTest, TornJournalRecoversRecordPrefixAtEveryByte) {
  {
    SolveCache cache(journaled(8));
    ASSERT_TRUE(cache.insert(key(1), cleanEstimate(1, 10), 1));
    ASSERT_TRUE(cache.insert(key(2), cleanEstimate(2, 20), 2));
    cache.insertFormula(key(3), {someFormula(), 3});
  }
  const std::string journalBytes = readFileBytes(journal_);
  ASSERT_GT(journalBytes.size(), 24u);

  std::size_t previousRecords = 0;
  for (std::size_t cut = 0; cut <= journalBytes.size(); ++cut) {
    writeFileBytes(journal_, journalBytes.substr(0, cut));
    SolveCache victim(journaled(8));
    const SnapshotRestoreReport report = victim.restore(snap_);
    EXPECT_LE(report.journalRecords, 3u);
    // Longer prefixes never recover fewer records.
    EXPECT_GE(report.journalRecords, previousRecords) << "cut " << cut;
    previousRecords = report.journalRecords;
    if (const auto hit = victim.lookupBound(key(1))) {
      EXPECT_EQ(hit->bound.hi, 10);
    }
    if (cut == journalBytes.size()) {
      EXPECT_TRUE(report.complete) << report.detail;
      EXPECT_EQ(report.journalRecords, 3u);
      EXPECT_TRUE(victim.lookupFormula(key(3)).has_value());
    }
  }
}

TEST_F(SolveCacheCrashTest, BitFlipIsDetectedNotInstalled) {
  SolveCache cache(journaled(8));
  ASSERT_TRUE(cache.insert(key(1), cleanEstimate(1, 10), 1));
  ASSERT_TRUE(cache.insert(key(2), cleanEstimate(2, 20), 2));
  std::string error;
  ASSERT_TRUE(cache.save(snap_, &error)) << error;

  std::string blob = readFileBytes(snap_);
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x40);
  writeFileBytes(snap_, blob);

  SolveCache victim(journaled(8));
  const SnapshotRestoreReport report = victim.restore(snap_);
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.detail.empty());
  // Every entry that DID come back is uncorrupted.
  if (const auto hit = victim.lookupBound(key(1))) {
    EXPECT_EQ(hit->bound.hi, 10);
  }
  if (const auto hit = victim.lookupBound(key(2))) {
    EXPECT_EQ(hit->bound.hi, 20);
  }
}

TEST_F(SolveCacheCrashTest, FaultedSaveLeavesPreviousSnapshotLoadable) {
  SolveCache cache(SolveCacheOptions{8});
  ASSERT_TRUE(cache.insert(key(1), cleanEstimate(1, 10), 1));
  std::string error;
  ASSERT_TRUE(cache.save(snap_, &error)) << error;

  ASSERT_TRUE(cache.insert(key(2), cleanEstimate(2, 20), 2));
  {
    support::FaultPlan plan;
    plan.snapshotWriteRate = 1.0;
    support::FaultInjector injector(plan);
    support::ScopedFaultInjector scoped(&injector);
    error.clear();
    EXPECT_FALSE(cache.save(snap_, &error));
    EXPECT_FALSE(error.empty());
  }

  // The failed save never touched the destination: the old snapshot
  // still loads strictly, with exactly its original contents.
  SolveCache revived(SolveCacheOptions{8});
  ASSERT_TRUE(revived.load(snap_, &error)) << error;
  EXPECT_TRUE(revived.lookupBound(key(1)).has_value());
  EXPECT_FALSE(revived.lookupBound(key(2)).has_value());
}

/// Little-endian byte writers for hand-built legacy files.
void putU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void putU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

/// One bound entry in the snapshot/journal encoding (digest, interval,
/// set count, solve µs).
std::string boundEntryBytes(const Digest& digest, std::int64_t lo,
                            std::int64_t hi, std::int64_t micros) {
  std::string out;
  putU64(&out, digest.hi);
  putU64(&out, digest.lo);
  putU64(&out, static_cast<std::uint64_t>(lo));
  putU64(&out, static_cast<std::uint64_t>(hi));
  putU32(&out, 3);
  putU64(&out, static_cast<std::uint64_t>(micros));
  return out;
}

/// One pre-v4 basis entry: digest, length, then the CBAS bytes (their
/// content is never parsed again, so any bytes do).
std::string basisEntryBytes(const Digest& digest) {
  std::string out;
  putU64(&out, digest.hi);
  putU64(&out, digest.lo);
  const std::string cbas = "CBAS-bytes-of-a-retired-seed-basis";
  putU32(&out, static_cast<std::uint32_t>(cbas.size()));
  out += cbas;
  return out;
}

/// A snapshot in the v3 layout: magic, version 3, then bounds, bases
/// and formulas sections and the end marker, each CRC-framed.
std::string v3SnapshotBytes() {
  std::string blob = "CSNAP";
  putU32(&blob, 3);
  auto section = [&](std::uint32_t tag, std::uint32_t count,
                     const std::string& payload) {
    putU32(&blob, tag);
    putU32(&blob, count);
    putU32(&blob, static_cast<std::uint32_t>(payload.size()));
    blob += payload;
    putU32(&blob, support::io::crc32(payload));
  };
  section(1, 2,
          boundEntryBytes(key(1), 1, 10, 11) +
              boundEntryBytes(key(2), 2, 20, 22));
  section(2, 2, basisEntryBytes(key(100)) + basisEntryBytes(key(200)));
  std::string formulas;
  putU64(&formulas, key(3).hi);
  putU64(&formulas, key(3).lo);
  putU64(&formulas, 33);
  const std::string json = someFormula().json();
  putU32(&formulas, static_cast<std::uint32_t>(json.size()));
  formulas += json;
  section(3, 1, formulas);
  section(0, 0, "");
  return blob;
}

void expectV3Entries(SolveCache& cache) {
  const auto one = cache.lookupBound(key(1));
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->bound.hi, 10);
  EXPECT_EQ(one->solveWallMicros, 11);
  const auto two = cache.lookupBound(key(2));
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->bound.lo, 2);
  const auto formula = cache.lookupFormula(key(3));
  ASSERT_TRUE(formula.has_value());
  EXPECT_EQ(formula->formula, someFormula());
  EXPECT_EQ(cache.boundEntries(), 2u);
  EXPECT_EQ(cache.formulaEntries(), 1u);
}

TEST_F(SolveCacheCrashTest, V3SnapshotLoadsBoundsAndFormulasSkippingBases) {
  writeFileBytes(snap_, v3SnapshotBytes());

  SolveCache strict(SolveCacheOptions{8});
  std::string error;
  ASSERT_TRUE(strict.load(snap_, &error)) << error;
  expectV3Entries(strict);

  SolveCache recovering(SolveCacheOptions{8});
  const SnapshotRestoreReport report = recovering.restore(snap_);
  EXPECT_TRUE(report.complete) << report.detail;
  EXPECT_EQ(report.bounds, 2u);
  EXPECT_EQ(report.formulas, 1u);
  expectV3Entries(recovering);

  // Saving again writes v4, which loads to the same entries.
  ASSERT_TRUE(recovering.save(snap_, &error)) << error;
  EXPECT_NE(readFileBytes(snap_), v3SnapshotBytes());
  SolveCache reloaded(SolveCacheOptions{8});
  ASSERT_TRUE(reloaded.load(snap_, &error)) << error;
  expectV3Entries(reloaded);
}

TEST_F(SolveCacheCrashTest, PreV4JournalRecordReplaysItsBoundAndSkipsItsBasis) {
  // Before v4 a bound record also carried the structural digest and the
  // seed basis after the bound entry.
  std::string record;
  putU32(&record, 1);
  const std::string payload =
      boundEntryBytes(key(1), 5, 50, 7) + basisEntryBytes(key(100));
  putU32(&record, static_cast<std::uint32_t>(payload.size()));
  record += payload;
  putU32(&record, support::io::crc32(record));
  writeFileBytes(journal_, record);

  SolveCache revived(journaled(8));
  const SnapshotRestoreReport report = revived.restore(snap_);
  EXPECT_TRUE(report.complete) << report.detail;
  EXPECT_EQ(report.journalRecords, 1u);
  const auto hit = revived.lookupBound(key(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->bound.hi, 50);
  EXPECT_EQ(revived.boundEntries(), 1u);
}

}  // namespace
}  // namespace cinderella::ipet
