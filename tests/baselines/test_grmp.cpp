#include "baselines/grmp.hpp"

#include <gtest/gtest.h>

#include "overlay/random_graph.hpp"

namespace glap::baselines {
namespace {

struct TestBed {
  cloud::DataCenter dc;
  sim::Engine engine;

  TestBed(std::size_t pms, std::size_t vms, std::uint64_t seed)
      : dc(pms, vms, cloud::DataCenterConfig{}), engine(pms, seed) {
    const auto overlay = overlay::RandomGraphProtocol::install(
        engine, {.degree = pms - 1}, seed);
    GrmpProtocol::install(engine, dc, overlay);
  }
};

TEST(Grmp, PacksLowerUtilizedIntoHigher) {
  TestBed bed(2, 3, 1);
  bed.dc.place(0, 0);
  bed.dc.place(1, 1);
  bed.dc.place(2, 1);
  std::vector<Resources> demands(3, Resources{0.3, 0.3});
  bed.dc.observe_demands(demands);
  bed.engine.step();
  EXPECT_EQ(bed.dc.pm(0).vm_count(), 0u);
  EXPECT_FALSE(bed.dc.pm_on(0));
  EXPECT_EQ(bed.dc.pm(1).vm_count(), 3u);
}

TEST(Grmp, ThresholdGatesCpuAcceptance) {
  TestBed bed(2, 10, 2);
  for (cloud::VmId v = 0; v < 5; ++v) bed.dc.place(v, 0);
  for (cloud::VmId v = 5; v < 10; ++v) bed.dc.place(v, 1);
  // Each VM uses 0.8 * 500 = 400 MIPS; 5 VMs = 2000 MIPS = 0.75 util.
  // Adding one more -> 2400 = 0.90 > 0.8 threshold: nothing may move.
  std::vector<Resources> demands(10, Resources{0.8, 0.1});
  bed.dc.observe_demands(demands);
  bed.engine.step();
  EXPECT_EQ(bed.dc.pm(0).vm_count(), 5u);
  EXPECT_EQ(bed.dc.pm(1).vm_count(), 5u);
}

TEST(Grmp, MemoryGuardedOnlyByCapacityByDefault) {
  // CPU-only threshold: memory may be packed past 0.8 of capacity but
  // never past 1.0.
  TestBed bed(2, 8, 3);
  for (cloud::VmId v = 0; v < 4; ++v) bed.dc.place(v, 0);
  for (cloud::VmId v = 4; v < 8; ++v) bed.dc.place(v, 1);
  // Memory-heavy, CPU-light: 8 VMs x 613 MB = 4904 MB > 4096 capacity,
  // so a full merge is impossible, but 6 VMs (3678 MB = 0.90 of mem) is
  // allowed because only CPU is thresholded.
  std::vector<Resources> demands(8, Resources{0.05, 1.0});
  bed.dc.observe_demands(demands);
  bed.engine.step();
  const std::size_t max_count =
      std::max(bed.dc.pm(0).vm_count(), bed.dc.pm(1).vm_count());
  EXPECT_EQ(max_count, 6u);
  EXPECT_LE(bed.dc.current_utilization(
                   max_count == bed.dc.pm(0).vm_count() ? 0 : 1)
                .mem,
            1.0);
}

TEST(Grmp, NoOverloadReliefPath) {
  // An overloaded PM stays overloaded even when its neighbor has headroom
  // below the threshold: GRMP's objective is packing, not relief.
  TestBed bed(2, 8, 5);
  for (cloud::VmId v = 0; v < 7; ++v) bed.dc.place(v, 0);
  bed.dc.place(7, 1);
  std::vector<Resources> demands(8, Resources{0.8, 0.2});
  bed.dc.observe_demands(demands);
  ASSERT_TRUE(bed.dc.overloaded(0));  // 7 x 400 = 2800 > 2660
  bed.engine.step();
  // The only legal direction is PM1 (400 MIPS) -> PM0, which the
  // threshold forbids; PM0 cannot shed.
  EXPECT_TRUE(bed.dc.overloaded(0));
  EXPECT_EQ(bed.dc.pm(0).vm_count(), 7u);
}

TEST(Grmp, PicksLargestCpuVmFirst) {
  TestBed bed(2, 3, 6);
  bed.dc.place(0, 0);
  bed.dc.place(1, 0);
  bed.dc.place(2, 1);
  // PM1 holds the big VM so PM0 (2 small VMs but lower total) drains.
  std::vector<Resources> demands{{0.1, 0.1}, {0.4, 0.1}, {0.9, 0.1}};
  bed.dc.observe_demands(demands);
  bed.engine.step();
  // PM0's bigger VM (vm 1) must have moved (both fit, order is by CPU).
  EXPECT_EQ(bed.dc.host_of(1), 1u);
  EXPECT_EQ(bed.dc.host_of(0), 1u);
}

}  // namespace
}  // namespace glap::baselines
