#include "cloud/datacenter.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "cloud/average_tracker.hpp"
#include "common/assert.hpp"

namespace glap::cloud {
namespace {

DataCenterConfig small_config() {
  DataCenterConfig config;
  // Keep the paper presets but a generous migration bandwidth for exact
  // arithmetic in tests.
  config.pm_spec.migration_bw_mbps = 100.0;
  return config;
}

/// 4 PMs, 8 VMs, every VM placed 2-per-PM, all demands set to `frac`.
DataCenter make_dc(double frac = 0.5) {
  DataCenter dc(4, 8, small_config());
  for (VmId v = 0; v < 8; ++v) dc.place(v, static_cast<PmId>(v / 2));
  std::vector<Resources> demands(8, Resources{frac, frac});
  dc.observe_demands(demands);
  return dc;
}

TEST(AverageTracker, PaperFormula) {
  AverageTracker tracker;
  tracker.observe({0.4, 0.2});
  EXPECT_EQ(tracker.count(), 1u);
  EXPECT_NEAR(tracker.average().cpu, 0.4, 1e-12);
  // ((c*v) + d) / (c+1) with c=1, v=0.4, d=0.8 -> 0.6
  tracker.observe({0.8, 0.4});
  EXPECT_NEAR(tracker.average().cpu, 0.6, 1e-12);
  EXPECT_NEAR(tracker.average().mem, 0.3, 1e-12);
  tracker.observe({0.0, 0.0});
  EXPECT_NEAR(tracker.average().cpu, 0.4, 1e-12);
  tracker.reset();
  EXPECT_EQ(tracker.count(), 0u);
  EXPECT_EQ(tracker.average(), (Resources{0.0, 0.0}));
}

// A DataCenter VM's running average and an AverageTracker fed the same
// samples agree bit for bit, since both fold through fold_average.
TEST(AverageTracker, MatchesDataCenterVmAverageBitForBit) {
  DataCenter dc(1, 1, small_config());
  dc.place(0, 0);
  AverageTracker tracker;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const Resources sample{rng.uniform(), rng.uniform()};
    dc.observe_demands(std::vector<Resources>{sample});
    tracker.observe(sample);
    ASSERT_EQ(dc.vm_observation_count(0), tracker.count());
    const Resources vm = dc.vm_average_fraction(0);
    const Resources tracked = tracker.average();
    ASSERT_EQ(std::memcmp(&vm, &tracked, sizeof vm), 0) << "sample " << i;
  }
}

TEST(Vm, UsageScalesWithSpec) {
  DataCenter dc(1, 1, small_config());
  dc.place(0, 0);
  dc.observe_demands(std::vector<Resources>{{0.5, 0.25}});
  EXPECT_NEAR(dc.vm_current_usage(0).cpu, 250.0, 1e-9);
  EXPECT_NEAR(dc.vm_current_usage(0).mem, 613.0 * 0.25, 1e-9);
  EXPECT_EQ(dc.vm_observation_count(0), 1u);
}

TEST(Vm, RejectsOutOfRangeDemand) {
  DataCenter dc(1, 1, small_config());
  dc.place(0, 0);
  EXPECT_THROW(dc.observe_demands(std::vector<Resources>{{1.5, 0.0}}),
               precondition_error);
  EXPECT_THROW(dc.observe_demands(std::vector<Resources>{{0.0, -0.1}}),
               precondition_error);
}

TEST(DataCenter, PlacementAndHostLookup) {
  DataCenter dc = make_dc();
  EXPECT_EQ(dc.host_of(0), 0u);
  EXPECT_EQ(dc.host_of(7), 3u);
  EXPECT_EQ(dc.pm(0).vm_count(), 2u);
  EXPECT_EQ(dc.active_pm_count(), 4u);
}

TEST(DataCenter, DoublePlacementRejected) {
  DataCenter dc(2, 2, small_config());
  dc.place(0, 0);
  EXPECT_THROW(dc.place(0, 1), precondition_error);
}

TEST(DataCenter, UtilizationAggregatesVmUsage) {
  DataCenter dc = make_dc(0.5);
  // 2 VMs at 50% of (500, 613) on a (2660, 4096) PM.
  const Resources util = dc.current_utilization(0);
  EXPECT_NEAR(util.cpu, 2 * 250.0 / 2660.0, 1e-12);
  EXPECT_NEAR(util.mem, 2 * 306.5 / 4096.0, 1e-12);
}

TEST(DataCenter, AverageUtilizationUsesTrackedAverages) {
  DataCenter dc = make_dc(0.8);
  std::vector<Resources> demands(8, Resources{0.2, 0.2});
  dc.observe_demands(demands);  // average is now 0.5
  const Resources avg = dc.average_utilization(0);
  EXPECT_NEAR(avg.cpu, 2 * 250.0 / 2660.0, 1e-12);
  const Resources cur = dc.current_utilization(0);
  EXPECT_NEAR(cur.cpu, 2 * 100.0 / 2660.0, 1e-12);
}

TEST(DataCenter, MigrationMovesVmAndUpdatesCaches) {
  DataCenter dc = make_dc(0.5);
  const Resources before_src = dc.current_usage(0);
  const Resources before_dst = dc.current_usage(1);
  const MigrationRecord rec = dc.migrate(0, 1);
  EXPECT_EQ(rec.vm, 0u);
  EXPECT_EQ(rec.from, 0u);
  EXPECT_EQ(rec.to, 1u);
  EXPECT_EQ(dc.host_of(0), 1u);
  EXPECT_EQ(dc.pm(0).vm_count(), 1u);
  EXPECT_EQ(dc.pm(1).vm_count(), 3u);
  const Resources moved = dc.vm_current_usage(0);
  EXPECT_NEAR(dc.current_usage(0).cpu, before_src.cpu - moved.cpu, 1e-9);
  EXPECT_NEAR(dc.current_usage(1).cpu, before_dst.cpu + moved.cpu, 1e-9);
  EXPECT_EQ(dc.total_migrations(), 1u);
}

TEST(DataCenter, MigrationRecordsTauAndEnergy) {
  DataCenter dc = make_dc(0.5);
  const MigrationRecord rec = dc.migrate(0, 1);
  // tau = mem usage / bandwidth = 306.5 / 100.
  EXPECT_NEAR(rec.tau_seconds, 306.5 / 100.0, 1e-9);
  EXPECT_GT(rec.energy_joules, 0.0);
  EXPECT_NEAR(dc.migration_energy_joules(), rec.energy_joules, 1e-9);
}

TEST(DataCenter, MigrationValidation) {
  DataCenter dc = make_dc(0.1);
  EXPECT_THROW(dc.migrate(0, 0), precondition_error);  // to current host
  // Empty PM 3 and put it to sleep, then try to migrate there.
  dc.migrate(6, 0);
  dc.migrate(7, 0);
  dc.set_power(3, PmPower::kSleep);
  EXPECT_THROW(dc.migrate(0, 3), precondition_error);
}

TEST(DataCenter, SleepRequiresEmptyPm) {
  DataCenter dc = make_dc();
  EXPECT_THROW(dc.set_power(0, PmPower::kSleep), precondition_error);
  dc.migrate(0, 1);
  dc.migrate(1, 1);
  dc.set_power(0, PmPower::kSleep);
  EXPECT_EQ(dc.active_pm_count(), 3u);
  dc.set_power(0, PmPower::kOn);
  EXPECT_EQ(dc.active_pm_count(), 4u);
}

TEST(DataCenter, OverloadDetection) {
  DataCenter dc(1, 6, small_config());
  for (VmId v = 0; v < 6; ++v) dc.place(v, 0);
  // 6 VMs at full CPU = 3000 MIPS > 2660 -> overloaded on CPU.
  std::vector<Resources> demands(6, Resources{1.0, 0.2});
  dc.observe_demands(demands);
  EXPECT_TRUE(dc.overloaded(0));
  EXPECT_TRUE(dc.cpu_saturated(0));
  EXPECT_EQ(dc.overloaded_pm_count(), 1u);
  // Drop demand: no longer overloaded.
  std::vector<Resources> light(6, Resources{0.2, 0.2});
  dc.observe_demands(light);
  EXPECT_FALSE(dc.overloaded(0));
}

TEST(DataCenter, MemoryOverloadCountsToo) {
  DataCenter dc(1, 7, small_config());
  for (VmId v = 0; v < 7; ++v) dc.place(v, 0);
  // 7 VMs at full memory = 4291 MB > 4096 -> overloaded on memory only.
  std::vector<Resources> demands(7, Resources{0.1, 1.0});
  dc.observe_demands(demands);
  EXPECT_TRUE(dc.overloaded(0));
  EXPECT_FALSE(dc.cpu_saturated(0));
}

TEST(DataCenter, CanHostChecksProjectedUsage) {
  DataCenter dc(2, 6, small_config());
  for (VmId v = 0; v < 5; ++v) dc.place(v, 0);
  dc.place(5, 1);
  std::vector<Resources> demands(6, Resources{1.0, 0.3});
  dc.observe_demands(demands);  // PM0: 2500 MIPS used, PM1: 500
  EXPECT_FALSE(dc.can_host(0, 5));  // 2500 + 500 > 2660
  EXPECT_TRUE(dc.can_host(1, 0));   // 500 + 500 < 2660
}

TEST(DataCenter, CanHostFalseForSleepingPm) {
  DataCenter dc = make_dc(0.1);
  dc.migrate(6, 0);
  dc.migrate(7, 0);
  dc.set_power(3, PmPower::kSleep);
  EXPECT_FALSE(dc.can_host(3, 0));
}

TEST(DataCenter, EndRoundAccumulatesEnergyAndSla) {
  DataCenter dc = make_dc(0.5);
  dc.end_round();
  EXPECT_GT(dc.total_energy_joules(), 0.0);
  EXPECT_EQ(dc.round(), 1u);
  // 4 PMs at some utilization for 120 s each; energy bounded by idle/max.
  const double lo = 4 * 93.7 * 120.0;
  const double hi = 4 * 135.0 * 120.0;
  EXPECT_GE(dc.total_energy_joules(), lo);
  EXPECT_LE(dc.total_energy_joules(), hi);
}

TEST(DataCenter, SleepingPmsConsumeNothing) {
  DataCenter dc = make_dc(0.1);
  dc.migrate(6, 0);
  dc.migrate(7, 0);
  dc.set_power(3, PmPower::kSleep);
  dc.end_round();
  const double three_active_max = 3 * 135.0 * 120.0;
  EXPECT_LE(dc.total_energy_joules(), three_active_max);
}

TEST(DataCenter, MigrationsThisRoundResetsOnEndRound) {
  DataCenter dc = make_dc(0.1);
  dc.migrate(0, 1);
  EXPECT_EQ(dc.migrations_this_round(), 1u);
  dc.end_round();
  EXPECT_EQ(dc.migrations_this_round(), 0u);
  EXPECT_EQ(dc.total_migrations(), 1u);
}

TEST(DataCenter, RandomPlacementRespectsAllocations) {
  DataCenterConfig config = small_config();
  DataCenter dc(10, 40, config);  // ratio 4: fits nominal allocations
  Rng rng(5);
  dc.place_randomly(rng);
  const Resources vm_alloc = config.vm_spec.capacity();
  const Resources pm_cap = config.pm_spec.capacity();
  for (PmId p = 0; p < 10; ++p) {
    const Resources allocated =
        vm_alloc * static_cast<double>(dc.pm(p).vm_count());
    EXPECT_TRUE(allocated.fits_within(pm_cap))
        << "PM " << p << " over-allocated with " << dc.pm(p).vm_count()
        << " VMs";
  }
  // All VMs placed.
  std::size_t total = 0;
  for (PmId p = 0; p < 10; ++p) total += dc.pm(p).vm_count();
  EXPECT_EQ(total, 40u);
}

TEST(DataCenter, RandomPlacementDeterministicPerSeed) {
  DataCenter a(6, 18, small_config());
  DataCenter b(6, 18, small_config());
  Rng ra(9), rb(9);
  a.place_randomly(ra);
  b.place_randomly(rb);
  EXPECT_EQ(a.placement_snapshot(), b.placement_snapshot());
}

TEST(DataCenter, ObserveDemandsRequiresFullVector) {
  DataCenter dc(2, 4, small_config());
  for (VmId v = 0; v < 4; ++v) dc.place(v, 0);
  std::vector<Resources> wrong(3);
  EXPECT_THROW(dc.observe_demands(wrong), precondition_error);
}

TEST(DataCenter, SlaTracksMigrationDegradation) {
  DataCenter dc = make_dc(0.5);
  dc.migrate(0, 1);
  dc.end_round();
  EXPECT_GT(dc.sla().slalm(), 0.0);
}

// ---- quiescence wake hook (DESIGN.md §12) -------------------------------

using Reason = trace::ActivityReason;
using HookLog = std::vector<std::pair<PmId, Reason>>;

HookLog::value_type ev(PmId pm, Reason reason) { return {pm, reason}; }

TEST(DataCenter, WakeHookFiresOnMigrationPlacementDepartureAndPower) {
  DataCenter dc = make_dc(0.5);
  HookLog log;
  dc.set_wake_hook(
      [&](PmId pm, Reason reason) { log.push_back({pm, reason}); },
      /*demand_epsilon=*/0.5);

  dc.migrate(0, 3);  // both endpoints must re-examine their packing
  EXPECT_EQ(log, (HookLog{ev(0, Reason::kMigration),
                          ev(3, Reason::kMigration)}));

  log.clear();
  dc.depart(1);  // PM 0's remaining load changed
  EXPECT_EQ(log, (HookLog{ev(0, Reason::kMigration)}));

  log.clear();
  dc.set_power(0, PmPower::kSleep);  // PM 0 is empty now
  EXPECT_EQ(log, (HookLog{ev(0, Reason::kStatus)}));
}

TEST(DataCenter, WakeHookDemandEpsilonBandsDrift) {
  DataCenter dc = make_dc(0.5);  // reference anchored at 0.5 on install
  HookLog log;
  dc.set_wake_hook(
      [&](PmId pm, Reason reason) { log.push_back({pm, reason}); },
      /*demand_epsilon=*/0.2);

  // Drift within the epsilon band: no wake, reference stays anchored.
  dc.observe_demands(std::vector<Resources>(8, Resources{0.65, 0.5}));
  EXPECT_TRUE(log.empty());

  // Cumulative drift past the band (vs the 0.5 anchor, not the last
  // sample): every hosted VM triggers a demand wake on its host.
  dc.observe_demands(std::vector<Resources>(8, Resources{0.72, 0.5}));
  ASSERT_FALSE(log.empty());
  for (const auto& [pm, reason] : log) {
    EXPECT_EQ(reason, Reason::kDemand);
    EXPECT_LT(pm, 4u);
  }
  const std::size_t wakes_after_jump = log.size();
  EXPECT_GE(wakes_after_jump, 8u) << "one wake per drifted VM";

  // The reference re-anchors at the waking sample, so holding steady
  // produces no further wakes.
  log.clear();
  dc.observe_demands(std::vector<Resources>(8, Resources{0.72, 0.5}));
  EXPECT_TRUE(log.empty());
}

}  // namespace
}  // namespace glap::cloud
