#include "cloud/topology.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"

namespace glap::cloud {
namespace {

TEST(RackTopology, RackAssignmentIsConsecutive) {
  RackTopology topo(10, 4);
  EXPECT_EQ(topo.rack_count(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(topo.rack_of(0), 0u);
  EXPECT_EQ(topo.rack_of(3), 0u);
  EXPECT_EQ(topo.rack_of(4), 1u);
  EXPECT_EQ(topo.rack_of(9), 2u);
}

TEST(RackTopology, MembersMatchRackOf) {
  RackTopology topo(10, 4);
  for (RackId r = 0; r < topo.rack_count(); ++r)
    for (PmId p : topo.members(r)) EXPECT_EQ(topo.rack_of(p), r);
  EXPECT_EQ(topo.members(2).size(), 2u);  // the short last rack
  // Each rack is one contiguous id range, and the ranges tile [0, 10).
  PmId next = 0;
  for (RackId r = 0; r < topo.rack_count(); ++r) {
    const auto ids = topo.members(r);
    ASSERT_FALSE(ids.empty());
    EXPECT_EQ(ids.front(), next);
    EXPECT_EQ(ids.back() + 1 - ids.front(), ids.size());
    next = ids.back() + 1;
  }
  EXPECT_EQ(next, 10u);
  EXPECT_EQ(topo.members(2).front(), 8u);
  EXPECT_EQ(topo.members(2).back(), 9u);
}

TEST(RackTopology, Validation) {
  EXPECT_THROW(RackTopology(0, 4), precondition_error);
  EXPECT_THROW(RackTopology(10, 0), precondition_error);
  EXPECT_THROW(RackTopology(10, 4, -1.0), precondition_error);
  RackTopology topo(10, 4);
  EXPECT_THROW((void)topo.rack_of(10), precondition_error);
  EXPECT_THROW((void)topo.members(3), precondition_error);
}

TEST(RackTopology, ActiveRacksTracksPmPower) {
  DataCenter dc(8, 8, DataCenterConfig{});
  for (VmId v = 0; v < 8; ++v) dc.place(v, static_cast<PmId>(v));
  std::vector<Resources> demands(8, Resources{0.3, 0.3});
  dc.observe_demands(demands);
  RackTopology topo(8, 4);
  EXPECT_EQ(topo.active_racks(dc), 2u);
  // Empty and sleep all of rack 1.
  for (PmId p = 4; p < 8; ++p) {
    dc.migrate(p, static_cast<PmId>(p - 4));
    dc.set_power(p, PmPower::kSleep);
  }
  EXPECT_EQ(topo.active_racks(dc), 1u);
}

TEST(RackTopology, SwitchEnergyScalesWithActiveRacks) {
  DataCenter dc(8, 4, DataCenterConfig{});
  for (VmId v = 0; v < 4; ++v) dc.place(v, static_cast<PmId>(v));
  std::vector<Resources> demands(4, Resources{0.3, 0.3});
  dc.observe_demands(demands);
  RackTopology topo(8, 4, /*switch_watts=*/100.0);
  // Rack 1 hosts nothing; sleep its PMs.
  for (PmId p = 4; p < 8; ++p) dc.set_power(p, PmPower::kSleep);
  EXPECT_DOUBLE_EQ(topo.switch_energy_joules(topo.active_racks(dc), 120.0),
                   100.0 * 120.0);
}

TEST(RackTopology, RackLoadAveragesActivePms) {
  DataCenter dc(4, 4, DataCenterConfig{});
  for (VmId v = 0; v < 4; ++v) dc.place(v, 0);
  std::vector<Resources> demands(4, Resources{0.5, 0.5});
  dc.observe_demands(demands);
  RackTopology topo(4, 2);
  // Rack 0 = {pm0 loaded, pm1 empty}; rack 1 = empty PMs.
  EXPECT_GT(topo.rack_load(dc, 0), 0.0);
  EXPECT_EQ(topo.rack_load(dc, 1), 0.0);
  // Sleep pm1: rack 0's load doubles (mean over powered-on PMs only).
  const double before = topo.rack_load(dc, 0);
  dc.set_power(1, PmPower::kSleep);
  EXPECT_NEAR(topo.rack_load(dc, 0), 2.0 * before, 1e-12);
}

TEST(RackTopology, MismatchedDataCenterRejected) {
  DataCenter dc(4, 4, DataCenterConfig{});
  RackTopology topo(8, 4);
  EXPECT_THROW((void)topo.active_racks(dc), precondition_error);
}

}  // namespace
}  // namespace glap::cloud
