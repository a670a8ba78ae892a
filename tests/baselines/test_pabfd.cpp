#include "baselines/pabfd.hpp"

#include <gtest/gtest.h>

namespace glap::baselines {
namespace {

struct TestBed {
  cloud::DataCenter dc;
  sim::Engine engine;
  sim::Slot<PabfdManager> slot;

  TestBed(std::size_t pms, std::size_t vms, std::uint64_t seed)
      : dc(pms, vms, cloud::DataCenterConfig{}),
        engine(pms, seed),
        slot(PabfdManager::install(engine, PabfdConfig{}, dc)) {}

  PabfdManager& manager() {
    return engine.protocol_at(slot, PabfdManager::kManagerNode);
  }

  /// One controller period: the manager records kIntervalRounds samples
  /// and reconsolidates on the last one.
  void step_one_period() {
    for (std::uint32_t r = 0; r < PabfdManager::kIntervalRounds; ++r)
      engine.step();
  }
};

TEST(PabfdMad, HandComputedValues) {
  // median of {1,2,3,4,5} = 3; deviations {2,1,0,1,2}; MAD = 1.
  EXPECT_DOUBLE_EQ(PabfdManager::mad({1, 2, 3, 4, 5}), 1.0);
  // Constant series: MAD 0.
  EXPECT_DOUBLE_EQ(PabfdManager::mad({4, 4, 4, 4}), 0.0);
  // Even-sized: median of {1,2,3,4} = 2.5; deviations {1.5,0.5,0.5,1.5};
  // MAD = median = 1.0.
  EXPECT_DOUBLE_EQ(PabfdManager::mad({1, 2, 3, 4}), 1.0);
  EXPECT_DOUBLE_EQ(PabfdManager::mad({7}), 0.0);
}

TEST(PabfdMad, RobustToOutliers) {
  // One wild outlier barely moves the MAD.
  const double clean = PabfdManager::mad({0.5, 0.5, 0.5, 0.5, 0.5});
  const double dirty = PabfdManager::mad({0.5, 0.5, 0.5, 0.5, 100.0});
  EXPECT_DOUBLE_EQ(clean, 0.0);
  EXPECT_DOUBLE_EQ(dirty, 0.0);
}

TEST(Pabfd, DefaultThresholdBeforeHistory) {
  TestBed bed(3, 3, 1);
  EXPECT_DOUBLE_EQ(bed.manager().upper_threshold(0),
                   PabfdManager::kDefaultUpper);
}

TEST(Pabfd, OnlyTheManagerHoldsAHistory) {
  // The stand-ins on the other nodes never act, so they keep no per-PM
  // history: install memory stays linear in the fleet size.
  TestBed bed(3, 3, 1);
  EXPECT_NO_THROW((void)bed.manager().upper_threshold(2));
  for (sim::NodeId node = 1; node < 3; ++node) {
    const PabfdManager& stand_in = bed.engine.protocol_at(bed.slot, node);
    EXPECT_THROW((void)stand_in.upper_threshold(0), precondition_error);
  }
}

TEST(Pabfd, AdaptiveThresholdAfterHistory) {
  TestBed bed(2, 4, 2);
  for (cloud::VmId v = 0; v < 4; ++v)
    bed.dc.place(v, static_cast<cloud::PmId>(v / 2));
  // Alternate demand so the PM's utilization history has spread.
  for (std::size_t round = 0; round < PabfdManager::kMinHistory + 2;
       ++round) {
    const double f = (round % 2 == 0) ? 0.2 : 0.7;
    std::vector<Resources> demands(4, Resources{f, 0.2});
    bed.dc.observe_demands(demands);
    bed.engine.step();
  }
  const double tu = bed.manager().upper_threshold(0);
  EXPECT_LT(tu, 1.0);
  EXPECT_GE(tu, PabfdManager::kMinUpper);
}

TEST(Pabfd, StableHistoryKeepsHighThreshold) {
  TestBed bed(2, 2, 3);
  bed.dc.place(0, 0);
  bed.dc.place(1, 1);
  for (std::size_t round = 0; round < PabfdManager::kMinHistory; ++round) {
    std::vector<Resources> demands(2, Resources{0.5, 0.2});
    bed.dc.observe_demands(demands);
    bed.engine.step();
  }
  // MAD of a constant series is 0 -> Tu = 1.
  EXPECT_DOUBLE_EQ(bed.manager().upper_threshold(0), 1.0);
}

TEST(Pabfd, RelievesOverloadedHost) {
  TestBed bed(3, 8, 4);
  for (cloud::VmId v = 0; v < 7; ++v) bed.dc.place(v, 1);
  bed.dc.place(7, 2);
  // PM1: 7 x 0.8 x 500 = 2800 > 2660 -> overloaded; manager must fix it.
  std::vector<Resources> demands(8, Resources{0.8, 0.2});
  bed.dc.observe_demands(demands);
  ASSERT_TRUE(bed.dc.overloaded(1));
  bed.step_one_period();
  EXPECT_FALSE(bed.dc.overloaded(1));
  EXPECT_GT(bed.dc.total_migrations(), 0u);
}

TEST(Pabfd, EvacuatesUnderloadedHostAndSleepsIt) {
  TestBed bed(3, 4, 5);
  bed.dc.place(0, 1);
  bed.dc.place(1, 2);
  bed.dc.place(2, 2);
  bed.dc.place(3, 2);
  std::vector<Resources> demands(4, Resources{0.3, 0.3});
  bed.dc.observe_demands(demands);
  bed.step_one_period();
  // PM1's single VM fits on PM2; PM1 switches off. PM0 hosts the manager
  // and must stay on even though it is empty.
  EXPECT_FALSE(bed.dc.pm_on(1));
  EXPECT_TRUE(bed.dc.pm_on(0));
  EXPECT_EQ(bed.dc.pm(2).vm_count(), 4u);
}

TEST(Pabfd, ManagerHostNeverSleeps) {
  TestBed bed(2, 1, 6);
  bed.dc.place(0, 0);  // manager host has the only VM
  std::vector<Resources> demands(1, Resources{0.1, 0.1});
  bed.dc.observe_demands(demands);
  for (int i = 0; i < 2; ++i) bed.step_one_period();
  EXPECT_TRUE(bed.dc.pm_on(0));
}

TEST(Pabfd, WakesSleepingHostWhenNothingFits) {
  TestBed bed(3, 11, 7);
  // PM1 and PM2 both heavily loaded; PM0 (manager) empty-ish is not
  // enough... fill everything so relief requires waking nobody is
  // sleeping yet; first make PM2 sleep via evacuation, then overload.
  for (cloud::VmId v = 0; v < 5; ++v) bed.dc.place(v, 0);
  for (cloud::VmId v = 5; v < 11; ++v) bed.dc.place(v, 1);
  {
    // Period 1: PM2 is empty and not the manager -> it sleeps.
    std::vector<Resources> demands(11, Resources{0.5, 0.2});
    bed.dc.observe_demands(demands);
    bed.step_one_period();
  }
  ASSERT_FALSE(bed.dc.pm_on(2));
  {
    // Period 2: both active PMs overload; relief has nowhere to go but a
    // woken host.
    std::vector<Resources> demands(11, Resources{1.0, 0.2});
    bed.dc.observe_demands(demands);
    bed.step_one_period();
  }
  EXPECT_TRUE(bed.dc.pm_on(2));
}

TEST(Pabfd, IntervalThrottlesReconsolidation) {
  TestBed bed(3, 4, 8);
  bed.dc.place(0, 1);
  bed.dc.place(1, 2);
  bed.dc.place(2, 2);
  bed.dc.place(3, 2);
  std::vector<Resources> demands(4, Resources{0.3, 0.3});
  // The first kIntervalRounds - 1 rounds record history only; the last
  // round of the period runs the controller.
  for (std::uint32_t r = 1; r < PabfdManager::kIntervalRounds; ++r) {
    bed.dc.observe_demands(demands);
    bed.engine.step();
    EXPECT_EQ(bed.dc.total_migrations(), 0u) << "round " << r;
  }
  bed.dc.observe_demands(demands);
  bed.engine.step();
  EXPECT_GT(bed.dc.total_migrations(), 0u);
}

TEST(Pabfd, ConfigValidation) {
  EXPECT_THROW((void)PabfdManager::mad({}), precondition_error);
}

}  // namespace
}  // namespace glap::baselines
