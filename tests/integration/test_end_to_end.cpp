// Cross-module integration tests: full experiment runs checked against
// system-level invariants, for every algorithm and several sweep cells.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "harness/runner.hpp"

namespace glap::harness {
namespace {

// GoogleTest prints a Cell's raw bytes into each test's listed name. An
// explicit zero word fills the gap after the 4-byte enum so no padding
// (and with it no stack garbage) reaches the name: every build lists the
// same test names.
struct Cell {
  Cell(Algorithm a, std::size_t pms, std::size_t r)
      : algorithm(a), pm_count(pms), ratio(r) {}
  Algorithm algorithm;
  std::uint32_t unused = 0;
  std::size_t pm_count;
  std::size_t ratio;
};
static_assert(std::has_unique_object_representations_v<Cell>,
              "Cell must have no padding bytes");

class EndToEndTest : public ::testing::TestWithParam<Cell> {};

ExperimentConfig config_for(const Cell& cell) {
  ExperimentConfig config;
  config.algorithm = cell.algorithm;
  config.pm_count = cell.pm_count;
  config.vm_ratio = cell.ratio;
  config.rounds = 60;
  config.warmup_rounds = 40;
  config.glap.learning_rounds = 20;
  config.glap.aggregation_rounds = 20;
  config.glap.consolidation_start_round = 40;
  config.seed = 2024;
  return config;
}

TEST_P(EndToEndTest, SystemInvariantsHold) {
  const Cell cell = GetParam();
  const RunResult result = run_experiment(config_for(cell));

  ASSERT_EQ(result.rounds.size(), 60u);
  for (const auto& s : result.rounds) {
    // Active PMs never exceed the fleet; overloaded never exceed active.
    EXPECT_LE(s.active_pms, cell.pm_count);
    EXPECT_GE(s.active_pms, 1u);
    EXPECT_LE(s.overloaded_pms, s.active_pms);
  }

  // SLA metrics are well-formed.
  EXPECT_GE(result.slavo, 0.0);
  EXPECT_LE(result.slavo, 1.0);
  EXPECT_GE(result.slalm, 0.0);
  EXPECT_NEAR(result.slav, result.slavo * result.slalm, 1e-12);

  // Energy accounting is consistent: active PMs for 60 rounds of 120 s.
  EXPECT_GT(result.total_energy_j, 0.0);
  const double max_energy =
      static_cast<double>(cell.pm_count) * 135.0 * 60.0 * 120.0;
  EXPECT_LE(result.total_energy_j, max_energy);
  EXPECT_GE(result.migration_energy_j, 0.0);

  // Consolidators must actually consolidate on these underloaded fleets.
  if (cell.algorithm != Algorithm::kNone) {
    EXPECT_LT(result.final_active_pms, cell.pm_count);
  }

  // The BFD oracle can never need more PMs than exist.
  EXPECT_LE(result.final_bfd_bins, cell.pm_count);
  EXPECT_GE(result.final_bfd_bins, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, EndToEndTest,
    ::testing::Values(Cell{Algorithm::kGlap, 60, 2},
                      Cell{Algorithm::kGlap, 60, 4},
                      Cell{Algorithm::kGrmp, 60, 3},
                      Cell{Algorithm::kEcoCloud, 60, 3},
                      Cell{Algorithm::kPabfd, 60, 3},
                      Cell{Algorithm::kNone, 40, 2}),
    [](const auto& info) {
      return std::string(to_string(info.param.algorithm)) + "_" +
             std::to_string(info.param.pm_count) + "x" +
             std::to_string(info.param.ratio);
    });

TEST(EndToEnd, IdenticalWorkloadAcrossAlgorithms) {
  // The None run exposes the raw demand playback; any algorithm's run on
  // the same seed must see identical BFD oracle packing at the end (the
  // oracle depends only on demands, which must be algorithm-independent).
  Cell base{Algorithm::kNone, 50, 3};
  const RunResult none = run_experiment(config_for(base));
  for (Algorithm algo : {Algorithm::kGlap, Algorithm::kGrmp,
                         Algorithm::kEcoCloud, Algorithm::kPabfd}) {
    Cell cell{algo, 50, 3};
    const RunResult result = run_experiment(config_for(cell));
    EXPECT_EQ(result.final_bfd_bins, none.final_bfd_bins)
        << to_string(algo) << " saw a different demand stream";
  }
}

TEST(EndToEnd, GlapBeatsGrmpOnOverloads) {
  // The paper's headline claim, checked at small scale: GLAP produces
  // fewer overloaded PMs than the aggressive threshold protocol.
  Cell glap_cell{Algorithm::kGlap, 80, 3};
  Cell grmp_cell{Algorithm::kGrmp, 80, 3};
  ExperimentConfig glap_config = config_for(glap_cell);
  ExperimentConfig grmp_config = config_for(grmp_cell);
  glap_config.rounds = grmp_config.rounds = 120;
  const RunResult glap = run_experiment(glap_config);
  const RunResult grmp = run_experiment(grmp_config);
  EXPECT_LT(glap.mean_overloaded(), grmp.mean_overloaded());
}

TEST(EndToEnd, GlapConvergenceReachesUnity) {
  Cell cell{Algorithm::kGlap, 60, 3};
  ExperimentConfig config = config_for(cell);
  config.track_convergence = true;
  config.convergence_pairs = 32;
  const RunResult result = run_experiment(config);
  ASSERT_EQ(result.convergence.size(), config.warmup_rounds);
  EXPECT_GT(result.convergence.back(), 0.999);
  // And the learning-only prefix is less converged than the end state.
  EXPECT_LT(result.convergence[config.glap.learning_rounds - 1],
            result.convergence.back());
}

TEST(EndToEnd, MessageAccountingIsPopulatedForGossipProtocols) {
  for (Algorithm algo :
       {Algorithm::kGlap, Algorithm::kGrmp, Algorithm::kEcoCloud}) {
    Cell cell{algo, 40, 2};
    const RunResult result = run_experiment(config_for(cell));
    EXPECT_GT(result.messages, 0u) << to_string(algo);
    EXPECT_GT(result.bytes, 0u) << to_string(algo);
  }
}

// ---- Convergence under network adversity (DESIGN.md §13) ----------------

TEST(EndToEnd, HealthyNetworkModelMatchesIdealRun) {
  // At defaults (no loss, 1 GbE, gossip-sized payloads) every exchange
  // completes within its round, so enabling the model must not change a
  // single consolidation decision — only the net_* accounting appears.
  // Migration contention is the one modeled side effect that can move a
  // metric (it stretches τ, and with it SLALM), so pin strict identity
  // with it off first, then check contention only ever lengthens τ.
  Cell cell{Algorithm::kGlap, 80, 3};
  ExperimentConfig ideal = config_for(cell);
  ExperimentConfig modeled = config_for(cell);
  modeled.network.enabled = true;
  modeled.network.migration_contention = false;
  const RunResult a = run_experiment(ideal);
  const RunResult b = run_experiment(modeled);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_EQ(a.final_active_pms, b.final_active_pms);
  EXPECT_EQ(a.slav, b.slav);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(b.net_sends, b.net_delivered);
  EXPECT_GT(b.net_sends, 0u);
  EXPECT_EQ(b.net_dropped_loss + b.net_dropped_congestion, 0u);

  ExperimentConfig contended = modeled;
  contended.network.migration_contention = true;
  const RunResult c = run_experiment(contended);
  EXPECT_EQ(a.total_migrations, c.total_migrations);
  EXPECT_EQ(a.final_active_pms, c.final_active_pms);
  EXPECT_GE(c.slalm, a.slalm) << "queueing can only lengthen migrations";
}

TEST(EndToEnd, GlapStillConsolidatesAtOnePercentLoss) {
  // Loss-tolerance regression: gossip is redundant by construction, so
  // GLAP must keep consolidating (and keep overloads bounded) when every
  // exchange leg independently drops at 1%.
  Cell cell{Algorithm::kGlap, 80, 3};
  ExperimentConfig ideal = config_for(cell);
  ideal.rounds = 120;
  ExperimentConfig lossy = ideal;
  lossy.network.enabled = true;
  lossy.network.loss_rate = 0.01;
  const RunResult clean = run_experiment(ideal);
  const RunResult noisy = run_experiment(lossy);

  EXPECT_GT(noisy.net_dropped_loss, 0u) << "loss never fired";
  // Still consolidates: the fleet shrinks from the initial 80 PMs...
  EXPECT_LT(noisy.final_active_pms, cell.pm_count);
  // ...to within 15% of the loss-free active-PM footprint,
  EXPECT_LE(noisy.mean_active(), clean.mean_active() * 1.15);
  // and overload suppression does not collapse either.
  EXPECT_LE(noisy.mean_overloaded(),
            clean.mean_overloaded() * 1.5 + 1.0);
}

}  // namespace
}  // namespace glap::harness
