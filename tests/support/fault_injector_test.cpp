// Fault-injection seam tests: decisions must be deterministic in
// (seed, site, call index), counters must account for every
// opportunity, and installation must nest and restore.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cinderella/support/fault_injector.hpp"

namespace cinderella::support {
namespace {

TEST(FaultInjector, ZeroRateNeverFaultsButCountsCalls) {
  FaultInjector injector{FaultPlan{}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.shouldFault(FaultSite::LpPivot));
  }
  EXPECT_EQ(injector.calls(FaultSite::LpPivot), 100);
  EXPECT_EQ(injector.injected(FaultSite::LpPivot), 0);
  EXPECT_EQ(injector.calls(FaultSite::ThreadPoolTask), 0);
}

TEST(FaultInjector, UnitRateAlwaysFaults) {
  FaultPlan plan;
  plan.threadTaskRate = 1.0;
  FaultInjector injector{plan};
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.shouldFault(FaultSite::ThreadPoolTask));
  }
  EXPECT_EQ(injector.injected(FaultSite::ThreadPoolTask), 50);
  // The other sites stay silent: rates are per-site.
  EXPECT_FALSE(injector.shouldFault(FaultSite::LpPivot));
  EXPECT_FALSE(injector.shouldFault(FaultSite::DeadlineClock));
}

TEST(FaultInjector, DecisionsReplayFromTheSeed) {
  FaultPlan plan;
  plan.seed = 42;
  plan.lpPivotRate = 0.5;
  plan.deadlineClockRate = 0.25;
  FaultInjector a{plan};
  FaultInjector b{plan};
  std::vector<bool> seqA, seqB;
  for (int i = 0; i < 256; ++i) {
    seqA.push_back(a.shouldFault(FaultSite::LpPivot));
    seqA.push_back(a.shouldFault(FaultSite::DeadlineClock));
    seqB.push_back(b.shouldFault(FaultSite::LpPivot));
    seqB.push_back(b.shouldFault(FaultSite::DeadlineClock));
  }
  EXPECT_EQ(seqA, seqB);
}

TEST(FaultInjector, DifferentSeedsGiveDifferentSequences) {
  FaultPlan planA;
  planA.lpPivotRate = 0.5;
  planA.seed = 1;
  FaultPlan planB = planA;
  planB.seed = 2;
  FaultInjector a{planA};
  FaultInjector b{planB};
  bool differ = false;
  for (int i = 0; i < 256 && !differ; ++i) {
    differ = a.shouldFault(FaultSite::LpPivot) !=
             b.shouldFault(FaultSite::LpPivot);
  }
  EXPECT_TRUE(differ);
}

TEST(FaultInjector, IntermediateRateFaultsRoughlyThatOften) {
  FaultPlan plan;
  plan.lpPivotRate = 0.3;
  FaultInjector injector{plan};
  for (int i = 0; i < 10'000; ++i) {
    (void)injector.shouldFault(FaultSite::LpPivot);
  }
  const double observed =
      static_cast<double>(injector.injected(FaultSite::LpPivot)) / 10'000.0;
  EXPECT_NEAR(observed, 0.3, 0.05);
}

TEST(FaultInjector, ScopedInstallRestoresThePrevious) {
  EXPECT_EQ(faultInjector(), nullptr);
  FaultInjector outer{FaultPlan{}};
  FaultInjector inner{FaultPlan{}};
  {
    ScopedFaultInjector installOuter(&outer);
    EXPECT_EQ(faultInjector(), &outer);
    {
      ScopedFaultInjector installInner(&inner);
      EXPECT_EQ(faultInjector(), &inner);
    }
    EXPECT_EQ(faultInjector(), &outer);
  }
  EXPECT_EQ(faultInjector(), nullptr);
}

TEST(FaultInjector, SiteNamesAreStable) {
  EXPECT_EQ(std::string(faultSiteStr(FaultSite::LpPivot)), "lp-pivot");
  EXPECT_EQ(std::string(faultSiteStr(FaultSite::ThreadPoolTask)),
            "thread-pool-task");
  EXPECT_EQ(std::string(faultSiteStr(FaultSite::DeadlineClock)),
            "deadline-clock");
}

TEST(FaultInjector, PlanMapsRatesToSites) {
  FaultPlan plan;
  plan.lpPivotRate = 0.1;
  plan.threadTaskRate = 0.2;
  plan.deadlineClockRate = 0.3;
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::LpPivot), 0.1);
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::ThreadPoolTask), 0.2);
  EXPECT_DOUBLE_EQ(plan.rate(FaultSite::DeadlineClock), 0.3);
}

}  // namespace
}  // namespace cinderella::support
