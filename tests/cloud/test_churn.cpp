#include <gtest/gtest.h>

#include "cloud/datacenter.hpp"
#include "common/assert.hpp"

namespace glap::cloud {
namespace {

DataCenter make_dc() {
  DataCenter dc(3, 6, DataCenterConfig{});
  for (VmId v = 0; v < 6; ++v) dc.place(v, static_cast<PmId>(v / 2));
  std::vector<Resources> demands(6, Resources{0.4, 0.4});
  dc.observe_demands(demands);
  return dc;
}

TEST(Churn, DepartRemovesVmFromHost) {
  DataCenter dc = make_dc();
  EXPECT_EQ(dc.placed_vm_count(), 6u);
  const Resources before = dc.current_usage(0);
  dc.depart(0);
  EXPECT_FALSE(dc.is_placed(0));
  EXPECT_EQ(dc.placed_vm_count(), 5u);
  EXPECT_EQ(dc.pm(0).vm_count(), 1u);
  EXPECT_LT(dc.current_usage(0).cpu, before.cpu);
}

TEST(Churn, DepartedVmHasNoHost) {
  DataCenter dc = make_dc();
  dc.depart(3);
  EXPECT_THROW((void)dc.host_of(3), precondition_error);
  EXPECT_THROW(dc.depart(3), precondition_error);  // double departure
}

TEST(Churn, DepartedVmIgnoresDemands) {
  DataCenter dc = make_dc();
  dc.depart(0);
  const auto count_before = dc.vm_observation_count(0);
  std::vector<Resources> demands(6, Resources{0.9, 0.9});
  dc.observe_demands(demands);
  EXPECT_EQ(dc.vm_observation_count(0), count_before);
  // Placed VMs still observe.
  EXPECT_GT(dc.vm_observation_count(1), count_before);
}

TEST(Churn, ReArrivalKeepsHistory) {
  DataCenter dc = make_dc();
  const auto observations = dc.vm_observation_count(0);
  dc.depart(0);
  dc.place(0, 2);
  EXPECT_TRUE(dc.is_placed(0));
  EXPECT_EQ(dc.host_of(0), 2u);
  EXPECT_EQ(dc.vm_observation_count(0), observations);
  EXPECT_EQ(dc.placed_vm_count(), 6u);
}

TEST(Churn, DepartedVmAccruesNoRequestedCpu) {
  DataCenter dc = make_dc();
  dc.depart(0);
  dc.end_round();
  // VM 0 contributed no Cr this round, so a later migration of VM 1
  // produces SLALM while VM 0 stays ratio-less (excluded from mean).
  dc.migrate(1, 1);
  dc.end_round();
  EXPECT_GT(dc.sla().slalm(), 0.0);
}

TEST(Churn, PlacementSnapshotMarksDeparted) {
  DataCenter dc = make_dc();
  dc.depart(4);
  const auto snapshot = dc.placement_snapshot();
  EXPECT_EQ(snapshot[4], static_cast<PmId>(-1));
  EXPECT_EQ(snapshot[0], 0u);
}

TEST(Churn, EmptyHostCanSleepAfterDepartures) {
  DataCenter dc = make_dc();
  dc.depart(4);
  dc.depart(5);
  dc.set_power(2, PmPower::kSleep);
  EXPECT_EQ(dc.active_pm_count(), 2u);
}

TEST(Heterogeneous, PerPmSpecsDriveUtilization) {
  DataCenterConfig config;
  std::vector<PmSpec> pms{hp_proliant_ml110_g5(), hp_proliant_ml110_g4()};
  std::vector<VmSpec> vms{ec2_micro(), ec2_micro()};
  DataCenter dc(pms, vms, config);
  dc.place(0, 0);
  dc.place(1, 1);
  std::vector<Resources> demands(2, Resources{1.0, 0.2});
  dc.observe_demands(demands);
  // Same absolute usage, different capacities: the G4 runs hotter.
  EXPECT_NEAR(dc.current_utilization(0).cpu, 500.0 / 2660.0, 1e-12);
  EXPECT_NEAR(dc.current_utilization(1).cpu, 500.0 / 1860.0, 1e-12);
}

TEST(Heterogeneous, MixedVmSizesAggregate) {
  DataCenterConfig config;
  std::vector<PmSpec> pms{hp_proliant_ml110_g5()};
  std::vector<VmSpec> vms{ec2_micro(), ec2_medium()};
  DataCenter dc(pms, vms, config);
  dc.place(0, 0);
  dc.place(1, 0);
  std::vector<Resources> demands(2, Resources{0.5, 0.1});
  dc.observe_demands(demands);
  // 0.5*500 + 0.5*2000 = 1250 MIPS.
  EXPECT_NEAR(dc.current_usage(0).cpu, 1250.0, 1e-9);
}

TEST(Heterogeneous, CanHostUsesTargetCapacity) {
  DataCenterConfig config;
  std::vector<PmSpec> pms{hp_proliant_ml110_g5(), hp_proliant_ml110_g4()};
  std::vector<VmSpec> vms{ec2_medium()};
  DataCenter dc(pms, vms, config);
  dc.place(0, 0);
  std::vector<Resources> demands(1, Resources{0.95, 0.2});
  dc.observe_demands(demands);
  // 1900 MIPS fits the G5 (2660) but not the G4 (1860).
  EXPECT_FALSE(dc.can_host(1, 0));
}

TEST(Heterogeneous, PowerModelsDifferPerPm) {
  DataCenterConfig config;
  std::vector<PmSpec> pms{hp_proliant_ml110_g5(), hp_proliant_ml110_g4()};
  std::vector<VmSpec> vms{ec2_micro()};
  DataCenter dc(pms, vms, config);
  EXPECT_DOUBLE_EQ(dc.pm(0).power_model().idle_watts(), 93.7);
  EXPECT_DOUBLE_EQ(dc.pm(1).power_model().idle_watts(), 86.0);
}

}  // namespace
}  // namespace glap::cloud
