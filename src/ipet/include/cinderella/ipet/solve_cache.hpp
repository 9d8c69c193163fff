// Persistent content-addressed solve cache: the serving layer's memory
// of every constraint system it has already bounded.
//
// Two LRU stores, both keyed by the byte-stable digests of digest.hpp:
//
//   * bounds — full-system digest (Analyzer::systemDigests) -> verified
//     [BCET, WCET] interval.  A hit means an identical ILP system was
//     already solved; the cached interval IS the answer and no solve
//     runs at all.
//
//   * formulas — parametric digest (Analyzer::parametricDigest) ->
//     WcetFormula.  A hit means the same system with the same symbolic
//     parameters and ranges was already run through the parametric
//     engine; the cached piecewise bound answers every point query in
//     that box without any solve (the serve layer's "evaluate" op).
//
// Admission is verification-gated: only estimates that are sound, not
// timed out, fault-free, and exact on every scheduled set are admitted,
// so a degraded or fault-injected result can never poison a future
// request (it is simply recomputed).  Both stores are LRU-bounded and
// the whole cache can be snapshot to / restored from disk, surviving
// daemon restarts — the digests' byte-stability is what makes those
// snapshots portable across rebuilds and platforms.
//
// Thread-safe: one mutex over both stores (lookups are O(log n) map
// walks plus a splice; the solves they save are milliseconds).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "cinderella/ipet/analyzer.hpp"
#include "cinderella/ipet/digest.hpp"
#include "cinderella/ipet/formula.hpp"
#include "cinderella/lp/simplex.hpp"
#include "cinderella/support/lru.hpp"

namespace cinderella::ipet {

struct SolveCacheOptions {
  /// Maximum entries per store (bounds and formulas each); 0 disables the
  /// cache entirely — every lookup misses and every insert is dropped.
  std::size_t capacity = 1024;
  /// When non-empty: every admitted insert is also appended (and
  /// fsync'd) to this journal file, so a crash between snapshots loses
  /// nothing that was admitted.  save() resets the journal after a
  /// successful snapshot; restore() replays it on top of the snapshot.
  std::string journalPath;
};

/// A verified cached result: the bound plus enough context for reports.
struct CachedBound {
  Interval bound;
  /// Constraint sets of the original solve (report context).
  int constraintSets = 0;
  /// Wall µs the original (cold) solve took — the time a hit saves.
  std::int64_t solveWallMicros = 0;
};

/// A cached parametric result: the verified piecewise bound plus the
/// wall time its construction took (what a hit saves).
struct CachedFormula {
  WcetFormula formula;
  std::int64_t solveWallMicros = 0;
};

struct SolveCacheStats {
  std::int64_t boundHits = 0;
  std::int64_t boundMisses = 0;
  /// Always 0: the cache stores no bases any more.  Stays only because
  /// perfbench/ reports it.
  std::int64_t basisHits = 0;
  std::int64_t formulaHits = 0;
  std::int64_t formulaMisses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  /// Inserts refused by the admission gate (degraded/faulted results).
  std::int64_t rejectedInserts = 0;
  /// Admissions durably appended to the journal / append failures
  /// (short write, failed fsync — the entry stays cached in memory but
  /// may not survive a crash).
  std::int64_t journaledInserts = 0;
  std::int64_t journalFailures = 0;
};

/// What restore() managed to recover from a snapshot + journal pair.
/// `complete` is false when any corruption or truncation was met — the
/// entries restored are then the longest consistent prefix, never a
/// torn or bit-flipped record.
struct SnapshotRestoreReport {
  bool snapshotFound = false;
  bool journalFound = false;
  bool complete = true;
  std::size_t bounds = 0;
  std::size_t formulas = 0;
  /// Journal records replayed on top of the snapshot.
  std::size_t journalRecords = 0;
  /// First corruption diagnostic, empty when complete.
  std::string detail;

  [[nodiscard]] bool anyRestored() const {
    return bounds + formulas + journalRecords > 0;
  }
};

class SolveCache {
 public:
  explicit SolveCache(SolveCacheOptions options = {});

  [[nodiscard]] bool enabled() const { return options_.capacity > 0; }

  /// Exact-system lookup; a hit returns the verified bound and marks
  /// the entry most-recently-used.
  [[nodiscard]] std::optional<CachedBound> lookupBound(const Digest& full);

  /// True when `estimate` passed every verification gate and may be
  /// cached: sound, not timed out, no absorbed issues, and no set
  /// degraded below Exact.
  [[nodiscard]] static bool admissible(const Estimate& estimate);

  /// Inserts the bound of a completed solve.  Returns false without
  /// touching the cache when `estimate` is not admissible().
  bool insert(const Digest& full, const Estimate& estimate,
              std::int64_t solveWallMicros);
  /// The same, in the form perfbench/ calls; the structural
  /// digest and the basis are ignored.
  bool insert(const Digest& full, const Digest& /*structural*/,
              const Estimate& estimate, lp::Basis /*unused*/,
              std::int64_t solveWallMicros) {
    return insert(full, estimate, solveWallMicros);
  }

  /// Parametric-system lookup; a hit returns the cached piecewise bound
  /// and marks the entry most-recently-used.
  [[nodiscard]] std::optional<CachedFormula> lookupFormula(
      const Digest& parametric);

  /// Inserts a parametric result.  The parametric engine verifies every
  /// formula against direct solves by construction, so there is no
  /// estimate-level admission gate here.
  void insertFormula(const Digest& parametric, CachedFormula entry);

  [[nodiscard]] SolveCacheStats stats() const;
  [[nodiscard]] std::size_t boundEntries() const;
  [[nodiscard]] std::size_t formulaEntries() const;
  void clear();

  /// Writes a binary snapshot of all stores (oldest-first, so load()
  /// restores recency order) — atomically: temp file + fsync + rename,
  /// so a crash mid-save leaves the previous snapshot intact.  Each
  /// section carries its own CRC32.  After a successful save the
  /// journal (when configured) is reset, its records now being folded
  /// into the snapshot.  Returns false with a diagnostic in `error` on
  /// I/O failure.  Counters are not persisted.
  bool save(const std::string& path, std::string* error) const;

  /// Replaces the cache contents from a snapshot written by save() (or
  /// by an older version: basis sections of v1-v3 snapshots are skipped),
  /// re-applying this cache's own capacity bound.  On any malformation
  /// (bad magic/version, truncation, CRC mismatch) returns false with a diagnostic and leaves the cache unchanged.
  /// Strict — recovery from partial damage is restore()'s job.
  bool load(const std::string& path, std::string* error);

  /// Crash-recovering load: restores the longest consistent prefix of
  /// the snapshot's sections, then replays the journal (when
  /// configured) up to its first torn or corrupt record.  A kill -9 at
  /// any byte offset therefore recovers every fully-persisted admission
  /// and never installs a corrupt entry.  Replaces the cache contents
  /// (with whatever was recovered, possibly nothing).
  SnapshotRestoreReport restore(const std::string& path);

 private:
  /// Appends one record to the journal (mutex held).  Best-effort: a
  /// failed append is counted, not fatal — the in-memory entry stands.
  void journalLocked(std::uint32_t type, std::string_view payload);

  SolveCacheOptions options_;
  mutable std::mutex mutex_;
  support::LruMap<Digest, CachedBound> bounds_;
  support::LruMap<Digest, CachedFormula> formulas_;
  SolveCacheStats stats_;
};

}  // namespace cinderella::ipet
