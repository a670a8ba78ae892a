#include "baselines/ecocloud.hpp"

#include <gtest/gtest.h>

#include "harness/runner.hpp"

namespace glap::baselines {
namespace {

TEST(EcoCloudAcceptance, ZeroAtAndAboveT2) {
  EcoCloudConfig config;
  EXPECT_DOUBLE_EQ(
      EcoCloudProtocol::acceptance_probability(config.upper_threshold, config),
      0.0);
  EXPECT_DOUBLE_EQ(EcoCloudProtocol::acceptance_probability(0.95, config),
                   0.0);
  EXPECT_DOUBLE_EQ(EcoCloudProtocol::acceptance_probability(-0.1, config),
                   0.0);
}

TEST(EcoCloudAcceptance, PeaksAtOneInsideBand) {
  EcoCloudConfig config;
  const double x_peak = config.accept_shape / (config.accept_shape + 1.0);
  const double u_peak = x_peak * config.upper_threshold;
  EXPECT_NEAR(EcoCloudProtocol::acceptance_probability(u_peak, config), 1.0,
              1e-9);
}

TEST(EcoCloudAcceptance, BoundedByOne) {
  EcoCloudConfig config;
  for (double u = 0.0; u < 1.0; u += 0.01) {
    const double p = EcoCloudProtocol::acceptance_probability(u, config);
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0 + 1e-12);
  }
}

TEST(EcoCloudAcceptance, PrefersFullerServersBelowPeak) {
  EcoCloudConfig config;
  EXPECT_LT(EcoCloudProtocol::acceptance_probability(0.1, config),
            EcoCloudProtocol::acceptance_probability(0.4, config));
}

TEST(EcoCloudUnderload, StrongDrainBelowT1) {
  EcoCloudConfig config;
  EXPECT_DOUBLE_EQ(
      EcoCloudProtocol::underload_migration_probability(0.0, config),
      config.migrate_prob_scale);
  const double at_t1 = EcoCloudProtocol::underload_migration_probability(
      config.lower_threshold, config);
  // Continuous handoff into the (weak) mid band at T1.
  EXPECT_LE(at_t1, config.mid_band_scale);
}

TEST(EcoCloudUnderload, MidBandIsWeakAndVanishesAtT2) {
  EcoCloudConfig config;
  const double mid = EcoCloudProtocol::underload_migration_probability(
      0.5 * (config.lower_threshold + config.upper_threshold), config);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, config.migrate_prob_scale);
  EXPECT_NEAR(EcoCloudProtocol::underload_migration_probability(
                  config.upper_threshold - 1e-9, config),
              0.0, 1e-6);
  EXPECT_DOUBLE_EQ(EcoCloudProtocol::underload_migration_probability(
                       config.upper_threshold + 0.01, config),
                   0.0);
}

TEST(EcoCloudUnderload, MonotoneNonIncreasingWithinEachBand) {
  // The probability decreases within the strong (<T1) band and within the
  // weak (T1, T2) band; the junction itself steps up from ~0 to the weak
  // residual by design.
  EcoCloudConfig config;
  double prev = 1.0;
  for (double u = 0.0; u < config.lower_threshold; u += 0.005) {
    const double p =
        EcoCloudProtocol::underload_migration_probability(u, config);
    ASSERT_LE(p, prev + 1e-9) << "strong band rose at u=" << u;
    prev = p;
  }
  prev = 1.0;
  for (double u = config.lower_threshold; u < config.upper_threshold;
       u += 0.005) {
    const double p =
        EcoCloudProtocol::underload_migration_probability(u, config);
    ASSERT_LE(p, prev + 1e-9) << "weak band rose at u=" << u;
    prev = p;
  }
}

struct TestBed {
  cloud::DataCenter dc;
  sim::Engine engine;
  sim::Engine::ProtocolSlot slot;

  TestBed(std::size_t pms, std::size_t vms, const EcoCloudConfig& config,
          std::uint64_t seed)
      : dc(pms, vms, cloud::DataCenterConfig{}), engine(pms, seed) {
    slot = EcoCloudProtocol::install(engine, config, dc, seed);
  }
};

TEST(EcoCloud, FailedEvacuationMovesNothingAndCoolsDown) {
  // PM 0 is nearly idle (drain fires with probability 1) but both peers
  // sit above T2, where the acceptance probability is exactly zero — the
  // evacuation plan must fail without moving any of PM 0's VMs.
  EcoCloudConfig config;
  config.migrate_prob_scale = 1.0;
  config.evacuation_cooldown = 40;
  TestBed bed(3, 14, config, 1);
  bed.dc.place(0, 0);
  bed.dc.place(1, 0);
  for (cloud::VmId v = 2; v < 8; ++v) bed.dc.place(v, 1);
  for (cloud::VmId v = 8; v < 14; ++v) bed.dc.place(v, 2);
  std::vector<Resources> demands(14, Resources{0.05, 0.9});
  demands[0] = demands[1] = {0.0, 0.0};  // PM 0's VMs idle -> p(drain)=1
  bed.dc.observe_demands(demands);
  // Peers: 6 x 0.9 x 613 MB = 3310 MB = 0.81 util > T2 -> accept prob 0.
  ASSERT_GT(bed.dc.current_utilization(1).mem, config.upper_threshold);
  bed.engine.step();
  EXPECT_EQ(bed.dc.host_of(0), 0u);
  EXPECT_EQ(bed.dc.host_of(1), 0u);
  EXPECT_TRUE(bed.dc.pm_on(0));
  const auto& node0 =
      bed.engine.protocol_at<EcoCloudProtocol>(bed.slot, 0);
  EXPECT_EQ(node0.cooldown_remaining(), 40u);
}

TEST(EcoCloud, SuccessfulEvacuationSleepsServer) {
  EcoCloudConfig config;
  config.migrate_prob_scale = 1.0;
  config.mid_band_scale = 1.0;
  config.probe_count = 64;
  config.evacuation_cooldown = 1;  // retry quickly in this tiny cluster
  TestBed bed(3, 3, config, 2);
  for (cloud::VmId v = 0; v < 3; ++v)
    bed.dc.place(v, static_cast<cloud::PmId>(v));
  // Light demand in the acceptance sweet spot region after merging.
  std::vector<Resources> demands(3, Resources{0.5, 0.5});
  bed.dc.observe_demands(demands);
  for (int round = 0; round < 30 && bed.dc.active_pm_count() > 1; ++round)
    bed.engine.step();
  EXPECT_LT(bed.dc.active_pm_count(), 3u);
  // No VM lives on a sleeping server.
  for (cloud::VmId v = 0; v < 3; ++v)
    EXPECT_TRUE(bed.dc.pm_on(bed.dc.host_of(v)));
}

TEST(EcoCloud, CooldownDecrementsAndSuppressesRetry) {
  EcoCloudConfig config;
  config.migrate_prob_scale = 1.0;
  config.evacuation_cooldown = 3;
  TestBed bed(3, 14, config, 3);
  bed.dc.place(0, 0);
  bed.dc.place(1, 0);
  for (cloud::VmId v = 2; v < 8; ++v) bed.dc.place(v, 1);
  for (cloud::VmId v = 8; v < 14; ++v) bed.dc.place(v, 2);
  std::vector<Resources> demands(14, Resources{0.05, 0.9});
  demands[0] = demands[1] = {0.0, 0.0};
  bed.dc.observe_demands(demands);
  bed.engine.step();  // plan fails -> cooldown = 3
  const auto& node0 =
      bed.engine.protocol_at<EcoCloudProtocol>(bed.slot, 0);
  ASSERT_EQ(node0.cooldown_remaining(), 3u);
  bed.engine.step();
  EXPECT_EQ(node0.cooldown_remaining(), 2u);
  bed.engine.step();
  EXPECT_EQ(node0.cooldown_remaining(), 1u);
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

TEST(EcoCloud, ConfigValidation) {
  cloud::DataCenter dc(2, 2, cloud::DataCenterConfig{});
  EcoCloudConfig bad;
  bad.lower_threshold = 0.9;  // T1 > T2
  EXPECT_THROW(EcoCloudProtocol(bad, dc, Rng(1)), precondition_error);
  EcoCloudConfig zero_probe;
  zero_probe.probe_count = 0;
  EXPECT_THROW(EcoCloudProtocol(zero_probe, dc, Rng(1)), precondition_error);
}

}  // namespace
}  // namespace glap::baselines
