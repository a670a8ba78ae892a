// Harness-level rack-topology tests: metric plumbing and the rack-aware
// GLAP variant end to end.
#include <gtest/gtest.h>

#include "harness/runner.hpp"

namespace glap::harness {
namespace {

ExperimentConfig topo_config(double affinity) {
  ExperimentConfig config;
  config.algorithm = Algorithm::kGlap;
  config.pm_count = 60;
  config.vm_ratio = 2;
  config.rounds = 60;
  config.warmup_rounds = 30;
  config.glap.learning_rounds = 12;
  config.glap.aggregation_rounds = 12;
  config.glap.consolidation_start_round = 30;
  config.seed = 77;
  config.rack_size = 6;
  config.glap.rack_affinity = affinity;
  return config;
}

TEST(TopologyHarness, RackMetricsPopulatedWhenEnabled) {
  const RunResult result = run_experiment(topo_config(0.0));
  ASSERT_FALSE(result.rounds.empty());
  for (const auto& s : result.rounds) {
    EXPECT_GE(s.active_racks, 1u);
    EXPECT_LE(s.active_racks, 10u);  // 60 PMs / rack of 6
  }
  EXPECT_GT(result.switch_energy_j, 0.0);
  EXPECT_GT(result.mean_active_racks(), 0.0);
}

TEST(TopologyHarness, DisabledTopologyMetersNothing) {
  ExperimentConfig config = topo_config(0.0);
  config.rack_size = 0;
  const RunResult result = run_experiment(config);
  EXPECT_EQ(result.switch_energy_j, 0.0);
  for (const auto& s : result.rounds) EXPECT_EQ(s.active_racks, 0u);
}

TEST(TopologyHarness, ActiveRacksNeverBelowActivePmsBound) {
  // ceil(active_pms / rack_size) <= active_racks <= active_pms.
  const RunResult result = run_experiment(topo_config(0.5));
  for (const auto& s : result.rounds) {
    const std::uint32_t lower = (s.active_pms + 5) / 6;
    EXPECT_GE(s.active_racks, lower);
    EXPECT_LE(s.active_racks, s.active_pms);
  }
}

TEST(TopologyHarness, RackAwareVariantStillConsolidates) {
  const RunResult plain = run_experiment(topo_config(0.0));
  const RunResult aware = run_experiment(topo_config(0.5));
  EXPECT_LT(aware.final_active_pms, 60u);
  // Consolidation quality stays in the same ballpark (within 30%).
  EXPECT_LT(aware.mean_active(), plain.mean_active() * 1.3);
}

TEST(TopologyHarness, InvalidAffinityRejected) {
  ExperimentConfig config = topo_config(1.5);
  EXPECT_THROW(run_experiment(config), precondition_error);
}

TEST(TopologyHarness, DeterministicWithTopology) {
  const RunResult a = run_experiment(topo_config(0.5));
  const RunResult b = run_experiment(topo_config(0.5));
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_DOUBLE_EQ(a.switch_energy_j, b.switch_energy_j);
}

}  // namespace
}  // namespace glap::harness
