#include "baselines/ecocloud.hpp"

#include <gtest/gtest.h>

#include "harness/runner.hpp"

namespace glap::baselines {
namespace {

using Eco = EcoCloudProtocol;

TEST(EcoCloudAcceptance, ZeroAtAndAboveT2) {
  EXPECT_DOUBLE_EQ(Eco::acceptance_probability(Eco::kUpperThreshold), 0.0);
  EXPECT_DOUBLE_EQ(Eco::acceptance_probability(0.95), 0.0);
  EXPECT_DOUBLE_EQ(Eco::acceptance_probability(-0.1), 0.0);
}

TEST(EcoCloudAcceptance, PeaksAtOneInsideBand) {
  const double x_peak = Eco::kAcceptShape / (Eco::kAcceptShape + 1.0);
  const double u_peak = x_peak * Eco::kUpperThreshold;
  EXPECT_NEAR(Eco::acceptance_probability(u_peak), 1.0, 1e-9);
}

TEST(EcoCloudAcceptance, BoundedByOne) {
  for (double u = 0.0; u < 1.0; u += 0.01) {
    const double p = Eco::acceptance_probability(u);
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0 + 1e-12);
  }
}

TEST(EcoCloudAcceptance, PrefersFullerServersBelowPeak) {
  EXPECT_LT(Eco::acceptance_probability(0.1),
            Eco::acceptance_probability(0.4));
}

TEST(EcoCloudUnderload, StrongDrainBelowT1) {
  EXPECT_DOUBLE_EQ(Eco::underload_migration_probability(0.0),
                   Eco::kMigrateProbScale);
  const double at_t1 =
      Eco::underload_migration_probability(Eco::kLowerThreshold);
  // Continuous handoff into the (weak) mid band at T1.
  EXPECT_LE(at_t1, Eco::kMidBandScale);
}

TEST(EcoCloudUnderload, MidBandIsWeakAndVanishesAtT2) {
  const double mid = Eco::underload_migration_probability(
      0.5 * (Eco::kLowerThreshold + Eco::kUpperThreshold));
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, Eco::kMigrateProbScale);
  EXPECT_NEAR(
      Eco::underload_migration_probability(Eco::kUpperThreshold - 1e-9), 0.0,
      1e-6);
  EXPECT_DOUBLE_EQ(
      Eco::underload_migration_probability(Eco::kUpperThreshold + 0.01), 0.0);
}

TEST(EcoCloudUnderload, MonotoneNonIncreasingWithinEachBand) {
  // The probability decreases within the strong (<T1) band and within the
  // weak (T1, T2) band; the junction itself steps up from ~0 to the weak
  // residual by design.
  double prev = 1.0;
  for (double u = 0.0; u < Eco::kLowerThreshold; u += 0.005) {
    const double p = Eco::underload_migration_probability(u);
    ASSERT_LE(p, prev + 1e-9) << "strong band rose at u=" << u;
    prev = p;
  }
  prev = 1.0;
  for (double u = Eco::kLowerThreshold; u < Eco::kUpperThreshold;
       u += 0.005) {
    const double p = Eco::underload_migration_probability(u);
    ASSERT_LE(p, prev + 1e-9) << "weak band rose at u=" << u;
    prev = p;
  }
}

struct TestBed {
  cloud::DataCenter dc;
  sim::Engine engine;
  sim::Slot<EcoCloudProtocol> slot;

  TestBed(std::size_t pms, std::size_t vms, std::uint64_t seed)
      : dc(pms, vms, cloud::DataCenterConfig{}),
        engine(pms, seed),
        slot(EcoCloudProtocol::install(engine, dc, seed)) {}

  /// Steps until PM 0's drain Bernoulli fires (probability
  /// kMigrateProbScale a round for an idle PM 0) and its evacuation plan
  /// fails, which starts the cooldown.
  void step_until_failed_plan() {
    const auto& node0 = engine.protocol_at(slot, 0);
    for (int round = 0; round < 50 && node0.cooldown_remaining() == 0; ++round)
      engine.step();
    ASSERT_GT(node0.cooldown_remaining(), 0u) << "drain never fired";
  }
};

/// Fills a 3-PM, 14-VM bed: PM 0 hosts two idle VMs, so its drain fires,
/// and PMs 1 and 2 sit just above T2 in memory, where the acceptance
/// probability is exactly zero, so every evacuation plan of PM 0 fails.
void block_evacuation_of_pm0(TestBed& bed) {
  bed.dc.place(0, 0);
  bed.dc.place(1, 0);
  for (cloud::VmId v = 2; v < 8; ++v) bed.dc.place(v, 1);
  for (cloud::VmId v = 8; v < 14; ++v) bed.dc.place(v, 2);
  std::vector<Resources> demands(14, Resources{0.05, 0.9});
  demands[0] = demands[1] = {0.0, 0.0};  // PM 0's VMs idle
  bed.dc.observe_demands(demands);
}

TEST(EcoCloud, FailedEvacuationMovesNothingAndCoolsDown) {
  // PM 0 is idle, so its drain fires, but both peers sit above T2, where
  // the acceptance probability is exactly zero — the evacuation plan must
  // fail without moving any of PM 0's VMs.
  TestBed bed(3, 14, 1);
  block_evacuation_of_pm0(bed);
  // Peers: 6 x 0.9 x 613 MB = 3310 MB = 0.81 util > T2 -> accept prob 0.
  ASSERT_GT(bed.dc.current_utilization(1).mem, Eco::kUpperThreshold);
  bed.step_until_failed_plan();
  EXPECT_EQ(bed.dc.host_of(0), 0u);
  EXPECT_EQ(bed.dc.host_of(1), 0u);
  EXPECT_TRUE(bed.dc.pm_on(0));
  const auto& node0 = bed.engine.protocol_at(bed.slot, 0);
  EXPECT_EQ(node0.cooldown_remaining(), Eco::kEvacuationCooldown);
}

TEST(EcoCloud, SuccessfulEvacuationSleepsServer) {
  // PM 0 hosts one light VM (below T1, so its drain fires often); PMs 1
  // and 2 run at ~0.56 CPU, in the acceptance sweet spot just below the
  // peak, with room for PM 0's VM.
  TestBed bed(3, 7, 2);
  bed.dc.place(0, 0);
  for (cloud::VmId v = 1; v < 4; ++v) bed.dc.place(v, 1);
  for (cloud::VmId v = 4; v < 7; ++v) bed.dc.place(v, 2);
  std::vector<Resources> demands(7, Resources{1.0, 0.5});
  demands[0] = {0.3, 0.3};
  bed.dc.observe_demands(demands);
  ASSERT_LT(bed.dc.current_utilization(0).max_component(),
            Eco::kLowerThreshold);
  for (int round = 0; round < 30 && bed.dc.active_pm_count() == 3; ++round)
    bed.engine.step();
  EXPECT_LT(bed.dc.active_pm_count(), 3u);
  // No VM lives on a sleeping server.
  for (cloud::VmId v = 0; v < 7; ++v)
    EXPECT_TRUE(bed.dc.pm_on(bed.dc.host_of(v)));
}

TEST(EcoCloud, CooldownDecrementsAndSuppressesRetry) {
  TestBed bed(3, 14, 3);
  block_evacuation_of_pm0(bed);
  bed.step_until_failed_plan();
  const auto& node0 = bed.engine.protocol_at(bed.slot, 0);
  ASSERT_EQ(node0.cooldown_remaining(), Eco::kEvacuationCooldown);
  // The drain stays silent for the whole cooldown, one round at a time.
  for (std::uint32_t left = Eco::kEvacuationCooldown; left > 0; --left) {
    ASSERT_EQ(node0.cooldown_remaining(), left);
    bed.engine.step();
  }
  EXPECT_EQ(node0.cooldown_remaining(), 0u);
  // Throughout, PM 0 keeps its VMs.
  EXPECT_EQ(bed.dc.pm(0).vm_count(), 2u);
}

// Regression for the plan_evacuation reservation map (a std::map, so the
// plan never depends on hash-bucket order): an underloaded fleet drives
// the evacuation planner hard, and two runs must agree on every
// aggregate.
TEST(EcoCloud, EvacuationPlanningIsReproducible) {
  harness::ExperimentConfig config;
  config.algorithm = harness::Algorithm::kEcoCloud;
  config.pm_count = 100;
  config.vm_ratio = 1;  // underloaded: the evacuation path dominates
  config.warmup_rounds = 40;
  config.rounds = 40;
  config.seed = 21;
  const harness::RunResult first = harness::run_experiment(config);
  const harness::RunResult second = harness::run_experiment(config);

  EXPECT_GT(first.total_migrations, 0u)
      << "config no longer exercises the evacuation planner";
  EXPECT_EQ(first.total_migrations, second.total_migrations);
  EXPECT_EQ(first.migration_energy_j, second.migration_energy_j);
  EXPECT_EQ(first.total_energy_j, second.total_energy_j);
  EXPECT_EQ(first.final_active_pms, second.final_active_pms);
  EXPECT_EQ(first.messages, second.messages);
  EXPECT_EQ(first.bytes, second.bytes);
  ASSERT_EQ(first.rounds.size(), second.rounds.size());
  for (std::size_t r = 0; r < first.rounds.size(); ++r) {
    EXPECT_EQ(first.rounds[r].active_pms, second.rounds[r].active_pms)
        << "round " << r;
    EXPECT_EQ(first.rounds[r].migrations_cum,
              second.rounds[r].migrations_cum)
        << "round " << r;
  }
}

}  // namespace
}  // namespace glap::baselines
