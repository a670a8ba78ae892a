#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
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

/// Every repetition's per-round samples, as the harness's CSV sink renders
/// them.
std::string round_series(const CellResult& cell) {
  std::ostringstream out;
  write_round_series_csv(cell, out);
  return out.str();
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

TEST(Sweep, RunCellsPreservesOrder) {
  ThreadPool pool(4);
  std::vector<ExperimentConfig> cells;
  for (std::size_t size : {20, 30}) {
    ExperimentConfig config = tiny();
    config.pm_count = size;
    cells.push_back(config);
  }
  const auto results = run_cells(cells, 2, pool);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].config.pm_count, 20u);
  EXPECT_EQ(results[1].config.pm_count, 30u);
  for (const auto& cell : results) EXPECT_EQ(cell.runs.size(), 2u);
  // A cell's runs do not depend on the other cells of the sweep.
  for (std::size_t c = 0; c < cells.size(); ++c)
    EXPECT_EQ(round_series(results[c]),
              round_series(run_cells({cells[c]}, 2, pool).front()))
        << cells[c].pm_count;
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
