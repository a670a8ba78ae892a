// Harness-level tests for VM churn, the GLAP re-learning oracle, and
// heterogeneous fleets.
#include <gtest/gtest.h>

#include "core/gossip_learning.hpp"
#include "harness/runner.hpp"
#include "overlay/cyclon.hpp"

namespace glap::harness {
namespace {

ExperimentConfig churn_config(Algorithm algo) {
  ExperimentConfig config;
  config.algorithm = algo;
  config.pm_count = 40;
  config.vm_ratio = 3;
  config.rounds = 80;
  config.warmup_rounds = 30;
  config.glap.learning_rounds = 10;
  config.glap.aggregation_rounds = 10;
  config.glap.consolidation_start_round = 30;
  config.seed = 99;
  config.churn.enabled = true;
  config.churn.departure_prob = 0.01;
  config.churn.arrival_prob = 0.05;
  config.churn.initial_placed_fraction = 0.7;
  return config;
}

TEST(Churn, RunsCleanlyForEveryAlgorithm) {
  for (Algorithm algo : {Algorithm::kGlap, Algorithm::kGrmp,
                         Algorithm::kEcoCloud, Algorithm::kPabfd,
                         Algorithm::kNone}) {
    const RunResult result = run_experiment(churn_config(algo));
    EXPECT_EQ(result.rounds.size(), 80u) << to_string(algo);
    EXPECT_GT(result.total_energy_j, 0.0) << to_string(algo);
  }
}

TEST(Churn, DeterministicUnderChurn) {
  const RunResult a = run_experiment(churn_config(Algorithm::kGlap));
  const RunResult b = run_experiment(churn_config(Algorithm::kGlap));
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_EQ(a.relearn_triggers, b.relearn_triggers);
  for (std::size_t i = 0; i < a.rounds.size(); ++i)
    ASSERT_EQ(a.rounds[i].active_pms, b.rounds[i].active_pms) << i;
}

TEST(Churn, RelearnOracleFiresUnderHeavyChurn) {
  ExperimentConfig config = churn_config(Algorithm::kGlap);
  config.churn.departure_prob = 0.05;
  config.churn.arrival_prob = 0.2;
  config.churn.relearn_min_interval = 20;
  config.churn.relearn_learning_rounds = 5;
  config.churn.relearn_aggregation_rounds = 5;
  const RunResult result = run_experiment(config);
  EXPECT_GT(result.relearn_triggers, 0u);
}

TEST(Churn, RelearnDisabledNeverFires) {
  ExperimentConfig config = churn_config(Algorithm::kGlap);
  config.churn.departure_prob = 0.05;
  config.churn.arrival_prob = 0.2;
  config.churn.glap_relearn = false;
  const RunResult result = run_experiment(config);
  EXPECT_EQ(result.relearn_triggers, 0u);
}

TEST(Churn, BaselinesNeverRelearn) {
  // The heavy churn that makes GLAP relearn (see
  // RelearnOracleFiresUnderHeavyChurn) never retriggers a baseline.
  ExperimentConfig config = churn_config(Algorithm::kGrmp);
  config.churn.departure_prob = 0.05;
  config.churn.arrival_prob = 0.2;
  config.churn.relearn_min_interval = 20;
  const RunResult result = run_experiment(config);
  EXPECT_EQ(result.relearn_triggers, 0u);
}

TEST(Churn, NoChurnMeansNoTriggers) {
  ExperimentConfig config = churn_config(Algorithm::kGlap);
  config.churn.enabled = false;
  const RunResult result = run_experiment(config);
  EXPECT_EQ(result.relearn_triggers, 0u);
}

TEST(Retrigger, ReentersLearningThenIdles) {
  cloud::DataCenter dc(4, 8, cloud::DataCenterConfig{});
  sim::Engine engine(4, 5);
  core::GlapConfig glap;
  glap.learning_rounds = 2;
  glap.aggregation_rounds = 2;
  const auto overlay = overlay::CyclonProtocol::install(engine, 5);
  const auto learning =
      core::GossipLearningProtocol::install(engine, glap, dc, overlay, 5);
  for (cloud::VmId v = 0; v < 8; ++v) dc.place(v, static_cast<cloud::PmId>(v / 2));
  std::vector<Resources> demands(8, Resources{0.3, 0.3});
  auto step = [&] {
    dc.observe_demands(demands);
    engine.step();
  };
  for (int i = 0; i < 5; ++i) step();
  auto& node = engine.protocol_at(learning, 0);
  ASSERT_EQ(node.phase(), core::GossipLearningProtocol::Phase::kIdle);
  node.retrigger(3, 2);
  EXPECT_EQ(node.phase(), core::GossipLearningProtocol::Phase::kLearning);
  for (int i = 0; i < 3; ++i) step();
  EXPECT_EQ(node.phase(), core::GossipLearningProtocol::Phase::kAggregation);
  for (int i = 0; i < 2; ++i) step();
  EXPECT_EQ(node.phase(), core::GossipLearningProtocol::Phase::kIdle);
}

TEST(Heterogeneous, MixedFleetRunsAndConsolidates) {
  ExperimentConfig config;
  config.algorithm = Algorithm::kGlap;
  config.pm_count = 40;
  config.vm_ratio = 2;
  config.rounds = 40;
  config.warmup_rounds = 20;
  config.glap.learning_rounds = 8;
  config.glap.aggregation_rounds = 8;
  config.glap.consolidation_start_round = 20;
  config.seed = 21;
  config.fleet.pm_classes = {{cloud::hp_proliant_ml110_g5(), 0.5},
                             {cloud::hp_proliant_ml110_g4(), 0.5}};
  config.fleet.vm_classes = {{cloud::ec2_micro(), 0.7},
                             {cloud::ec2_small(), 0.3}};
  const RunResult result = run_experiment(config);
  EXPECT_LT(result.final_active_pms, 40u);
}

TEST(Heterogeneous, FleetDrawIsAlgorithmIndependent) {
  // Same seed, different algorithm: identical BFD oracle implies the
  // fleet and demand streams matched.
  ExperimentConfig base;
  base.pm_count = 30;
  base.vm_ratio = 2;
  base.rounds = 20;
  base.warmup_rounds = 10;
  base.fit_glap_phases_to_warmup();
  base.seed = 33;
  base.fleet.vm_classes = {{cloud::ec2_micro(), 0.5},
                           {cloud::ec2_small(), 0.5}};
  base.algorithm = Algorithm::kNone;
  const RunResult none = run_experiment(base);
  base.algorithm = Algorithm::kGrmp;
  const RunResult grmp = run_experiment(base);
  EXPECT_EQ(none.final_bfd_bins, grmp.final_bfd_bins);
}

TEST(Heterogeneous, InvalidWeightsRejected) {
  ExperimentConfig config;
  config.pm_count = 5;
  config.vm_ratio = 2;
  config.rounds = 1;
  config.warmup_rounds = 0;
  config.glap.learning_rounds = 0;
  config.glap.aggregation_rounds = 0;
  config.fleet.pm_classes = {{cloud::hp_proliant_ml110_g5(), 0.0}};
  EXPECT_THROW(run_experiment(config), precondition_error);
}

}  // namespace
}  // namespace glap::harness
