// Deterministic fault injection — the seam that lets tests and the fuzz
// oracle prove the solve engine's degradation paths stay sound.
//
// A FaultInjector is installed process-wide and consulted at five
// sites:
//
//   * LpPivot        — the simplex pivot loop throws InjectedFaultError,
//                      emulating a numeric breakdown mid-solve;
//   * ThreadPoolTask — the work-stealing pool drops a claimed task on the
//                      floor (it completes without running), emulating a
//                      lost per-constraint-set solve;
//   * DeadlineClock  — the deadline check (ipet::deadlineExpired, used by
//                      estimate() and by LP-input requests) reports
//                      "expired" spuriously, emulating clock faults and
//                      exercising the partial-result path without real
//                      waiting;
//   * SnapshotWrite  — support::io's file writers stop after a prefix of
//                      the bytes and report failure, emulating ENOSPC or
//                      a crash mid-write (the torn file stays on disk);
//   * SnapshotFsync  — support::io's fsync reports failure, emulating a
//                      dying disk, so durable-write callers must treat
//                      the data as not yet persisted.
//
// Decisions are a pure function of (seed, site, per-site call counter),
// so a single-threaded run replays bit-for-bit from the seed alone.
// When nothing is installed — the default — each site costs one relaxed
// atomic load and a never-taken branch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace cinderella::support {

enum class FaultSite : int {
  LpPivot = 0,
  ThreadPoolTask = 1,
  DeadlineClock = 2,
  SnapshotWrite = 3,
  SnapshotFsync = 4,
};
inline constexpr int kNumFaultSites = 5;

[[nodiscard]] const char* faultSiteStr(FaultSite site);

/// Per-site fault rates in [0, 1]; 0 disables a site entirely.
struct FaultPlan {
  std::uint64_t seed = 1;
  double lpPivotRate = 0.0;
  double threadTaskRate = 0.0;
  double deadlineClockRate = 0.0;
  double snapshotWriteRate = 0.0;
  double snapshotFsyncRate = 0.0;

  [[nodiscard]] double rate(FaultSite site) const;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// True when this opportunity must fault.  Thread-safe; deterministic
  /// in the per-site call sequence (splitmix64 of seed ^ site ^ counter).
  [[nodiscard]] bool shouldFault(FaultSite site);

  /// Opportunities seen / faults injected at `site` so far.
  [[nodiscard]] std::int64_t calls(FaultSite site) const;
  [[nodiscard]] std::int64_t injected(FaultSite site) const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  std::array<std::atomic<std::uint64_t>, kNumFaultSites> calls_{};
  std::array<std::atomic<std::int64_t>, kNumFaultSites> injected_{};
};

/// The currently installed injector, or nullptr (the default: no faults).
[[nodiscard]] FaultInjector* faultInjector() noexcept;

/// Installs `injector` (nullptr to disable); returns the previous one.
FaultInjector* setFaultInjector(FaultInjector* injector) noexcept;

/// RAII install/restore of the process-wide injector.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector)
      : previous_(setFaultInjector(injector)) {}
  ~ScopedFaultInjector() { setFaultInjector(previous_); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace cinderella::support
