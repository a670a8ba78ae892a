#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "harness/bench_scale.hpp"
#include "harness/report.hpp"

namespace glap::harness {
namespace {

ExperimentConfig tiny() {
  ExperimentConfig config;
  config.algorithm = Algorithm::kGrmp;
  config.pm_count = 30;
  config.vm_ratio = 2;
  config.rounds = 20;
  config.warmup_rounds = 10;
  config.fit_glap_phases_to_warmup();
  config.seed = 100;
  return config;
}

/// Requires a pooled run to equal the same config run on its own: every
/// round sample, every run total, the convergence series and the profile's
/// deterministic half (labels and call counts).
void expect_same_run(const RunResult& pooled, const RunResult& alone) {
  EXPECT_TRUE(pooled.rounds == alone.rounds);
  EXPECT_EQ(pooled.total_migrations, alone.total_migrations);
  EXPECT_EQ(pooled.migration_energy_j, alone.migration_energy_j);
  EXPECT_EQ(pooled.total_energy_j, alone.total_energy_j);
  EXPECT_EQ(pooled.slavo, alone.slavo);
  EXPECT_EQ(pooled.slalm, alone.slalm);
  EXPECT_EQ(pooled.slav, alone.slav);
  EXPECT_EQ(pooled.messages, alone.messages);
  EXPECT_EQ(pooled.bytes, alone.bytes);
  EXPECT_EQ(pooled.final_active_pms, alone.final_active_pms);
  EXPECT_EQ(pooled.final_overloaded_pms, alone.final_overloaded_pms);
  EXPECT_EQ(pooled.final_bfd_bins, alone.final_bfd_bins);
  EXPECT_EQ(pooled.relearn_triggers, alone.relearn_triggers);
  EXPECT_EQ(pooled.switch_energy_j, alone.switch_energy_j);
  EXPECT_EQ(pooled.net_sends, alone.net_sends);
  EXPECT_EQ(pooled.net_delivered, alone.net_delivered);
  EXPECT_EQ(pooled.net_delayed, alone.net_delayed);
  EXPECT_EQ(pooled.net_dropped_loss, alone.net_dropped_loss);
  EXPECT_EQ(pooled.net_dropped_congestion, alone.net_dropped_congestion);
  EXPECT_EQ(pooled.convergence, alone.convergence);
  ASSERT_EQ(pooled.profile.size(), alone.profile.size());
  for (std::size_t p = 0; p < pooled.profile.size(); ++p) {
    EXPECT_EQ(pooled.profile[p].label, alone.profile[p].label);
    EXPECT_EQ(pooled.profile[p].calls, alone.profile[p].calls);
  }
}

TEST(Sweep, RunCellUsesDistinctSeeds) {
  ThreadPool pool(2);
  const CellResult cell = run_cells({tiny()}, 3, pool).front();
  ASSERT_EQ(cell.runs.size(), 3u);
  // Seeds 100, 101, 102: at least two runs should differ somewhere.
  bool differ = false;
  for (std::size_t i = 1; i < 3 && !differ; ++i)
    differ = cell.runs[i].total_migrations != cell.runs[0].total_migrations ||
             cell.runs[i].final_active_pms != cell.runs[0].final_active_pms;
  EXPECT_TRUE(differ);
}

TEST(Sweep, RunCellMatchesDirectRuns) {
  ThreadPool pool(3);
  const CellResult cell = run_cells({tiny()}, 2, pool).front();
  ExperimentConfig direct = tiny();
  const RunResult first = run_experiment(direct);
  direct.seed = tiny().seed + 1;
  const RunResult second = run_experiment(direct);
  EXPECT_EQ(cell.runs[0].total_migrations, first.total_migrations);
  EXPECT_EQ(cell.runs[1].total_migrations, second.total_migrations);
}

// One run_cells call mixing shrunk versions of the cells the table benches
// pool: each cell keeps its place, and its runs do not depend on the other
// cells of the sweep.
TEST(Sweep, RunCellsPreservesOrder) {
  ExperimentConfig glap = tiny();
  glap.algorithm = Algorithm::kGlap;
  std::vector<ExperimentConfig> cells(8, glap);
  cells[0].track_convergence = true;
  cells[0].convergence_pairs = 16;
  cells[1].network.enabled = true;
  cells[1].network.loss_rate = 0.01;
  cells[2].churn.enabled = true;
  cells[2].churn.departure_prob = 0.05;
  cells[2].churn.arrival_prob = 0.2;
  cells[2].churn.initial_placed_fraction = 0.7;
  cells[2].churn.relearn_min_interval = 5;
  cells[2].churn.relearn_learning_rounds = 3;
  cells[2].churn.relearn_aggregation_rounds = 2;
  cells[3].rack_size = 6;
  cells[3].glap.rack_affinity = 0.5;
  cells[4].algorithm = Algorithm::kGrmp;
  cells[4].observability.profile = true;
  cells[5].algorithm = Algorithm::kEcoCloud;
  cells[5].fleet.pm_classes = {{cloud::hp_proliant_ml110_g5(), 0.5},
                               {cloud::hp_proliant_ml110_g4(), 0.5}};
  cells[5].fleet.vm_classes = {{cloud::ec2_micro(), 0.8},
                               {cloud::ec2_small(), 0.2}};
  cells[6].overlay = OverlayKind::kNewscast;
  cells[7].algorithm = Algorithm::kPabfd;
  cells[7].pabfd.estimator = baselines::ThresholdEstimator::kIqr;
  // Distinct sizes make the order visible.
  for (std::size_t c = 0; c < cells.size(); ++c)
    cells[c].pm_count = 20 + 2 * c;

  ThreadPool pool(4);
  const std::size_t repetitions = 2;
  const auto results = run_cells(cells, repetitions, pool);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    EXPECT_EQ(results[c].config.pm_count, cells[c].pm_count);
    ASSERT_EQ(results[c].runs.size(), repetitions);
    for (std::size_t rep = 0; rep < repetitions; ++rep) {
      ExperimentConfig alone = cells[c];
      alone.seed += rep;
      expect_same_run(results[c].runs[rep], run_experiment(alone));
    }
  }
  // Each feature under test is live in its cell.
  EXPECT_FALSE(results[0].runs[0].convergence.empty());
  EXPECT_GT(results[1].runs[0].net_dropped_loss, 0u);
  EXPECT_GT(results[2].runs[0].relearn_triggers, 0u);
  EXPECT_GT(results[3].runs[0].switch_energy_j, 0.0);
  EXPECT_FALSE(results[4].runs[0].profile.empty());
}

TEST(Sweep, PooledRoundSummaryPoolsAcrossRuns) {
  CellResult cell;
  for (int run = 0; run < 2; ++run) {
    RunResult r;
    for (std::uint32_t i = 0; i < 3; ++i) {
      RoundSample s;
      s.overloaded_pms = static_cast<std::uint32_t>(run * 3 + i);
      r.rounds.push_back(s);
    }
    cell.runs.push_back(std::move(r));
  }
  const auto summary = cell.pooled_round_summary(
      [](const RunResult& r) { return r.overloaded_series(); });
  EXPECT_EQ(summary.count, 6u);
  EXPECT_DOUBLE_EQ(summary.median, 2.5);
  EXPECT_DOUBLE_EQ(summary.min, 0.0);
  EXPECT_DOUBLE_EQ(summary.max, 5.0);
}

TEST(Sweep, MeanOfAveragesScalars) {
  CellResult cell;
  for (double m : {10.0, 20.0, 30.0}) {
    RunResult r;
    r.total_migrations = static_cast<std::uint64_t>(m);
    cell.runs.push_back(std::move(r));
  }
  EXPECT_DOUBLE_EQ(cell.mean_of([](const RunResult& r) {
    return static_cast<double>(r.total_migrations);
  }),
                   20.0);
}

TEST(Sweep, ZeroRepetitionsRejected) {
  ThreadPool pool(1);
  EXPECT_THROW(run_cells({tiny()}, 0, pool), precondition_error);
}

TEST(BenchScale, DefaultAndFull) {
  // Without env overrides the default scale is small; this test only
  // checks invariants that hold for either setting.
  const BenchScale scale = bench_scale_from_env();
  EXPECT_FALSE(scale.sizes.empty());
  EXPECT_FALSE(scale.ratios.empty());
  EXPECT_GT(scale.repetitions, 0u);
  EXPECT_GT(scale.rounds, 0u);
  ExperimentConfig config;
  apply_scale(config, scale);
  EXPECT_EQ(config.rounds, scale.rounds);
  EXPECT_LE(config.glap.learning_rounds + config.glap.aggregation_rounds,
            config.warmup_rounds);
}

TEST(BenchScale, AcceptsOnlyWellFormedVariables) {
  // Each test runs in its own process, so the environment is private.
  ::setenv("GLAP_BENCH_SCALE", "", 1);
  ::setenv("GLAP_BENCH_REPS", "", 1);
  EXPECT_EQ(bench_scale_from_env().sizes, std::vector<std::size_t>{150});
  EXPECT_EQ(bench_scale_from_env().repetitions, 2u);
  ::setenv("GLAP_BENCH_SCALE", "full", 1);
  ::setenv("GLAP_BENCH_REPS", "20", 1);
  EXPECT_EQ(bench_scale_from_env().sizes.size(), 3u);
  EXPECT_EQ(bench_scale_from_env().repetitions, 20u);
  for (const char* reps : {"abc", "0", "-1", "2x", "1001"}) {
    ::setenv("GLAP_BENCH_REPS", reps, 1);
    EXPECT_THROW((void)bench_scale_from_env(), std::invalid_argument) << reps;
  }
  ::setenv("GLAP_BENCH_REPS", "", 1);
  for (const char* scale : {"FULL", "paper", " full"}) {
    ::setenv("GLAP_BENCH_SCALE", scale, 1);
    EXPECT_THROW((void)bench_scale_from_env(), std::invalid_argument)
        << scale;
  }
  ::unsetenv("GLAP_BENCH_SCALE");
  ::unsetenv("GLAP_BENCH_REPS");
}

// A results file on a full disk fails the write, naming the file, instead
// of leaving it truncated behind a "[results] wrote" line.
TEST(BenchReport, WriteToAFullDiskThrowsNamingTheFile) {
  namespace fs = std::filesystem;
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "/dev/full is absent";
  const fs::path dir = fs::path(::testing::TempDir()) / "glap_full_results";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path file = dir / "full.json";
  fs::create_symlink("/dev/full", file);
  // Each test runs in its own process, so the environment is private.
  ::setenv("GLAP_RESULTS_DIR", dir.c_str(), 1);
  try {
    BenchReport("full", "full disk").write();
    ADD_FAILURE() << "write reported success on a full disk";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find(file.string()), std::string::npos)
        << e.what();
  }
  ::unsetenv("GLAP_RESULTS_DIR");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace glap::harness
