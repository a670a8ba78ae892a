// Sweep execution: runs a set of experiment cells × repetitions on a
// thread pool and aggregates repeated runs into the median/p10/p90
// summaries the paper plots.
#pragma once

#include <functional>
#include <vector>

#include "common/thread_pool.hpp"
#include "harness/experiment.hpp"
#include "harness/metrics.hpp"
#include "harness/runner.hpp"

namespace glap::harness {

/// Results of all repetitions of one experiment cell.
struct CellResult {
  ExperimentConfig config;  ///< config of the first repetition
  std::vector<RunResult> runs;

  /// Pools a per-round series across all runs and summarizes it — the
  /// paper's "median, 10th and 90th percentiles ... at the end of each
  /// round in all the executions" (Figs. 7-8).
  [[nodiscard]] PercentileSummary pooled_round_summary(
      const std::function<std::vector<double>(const RunResult&)>& series)
      const;

  /// Mean of a per-run scalar across repetitions (Table I, Figs. 6, 10).
  [[nodiscard]] double mean_of(
      const std::function<double(const RunResult&)>& metric) const;
};

/// Runs `repetitions` of every cell (seeds cell.seed, cell.seed+1, …), all
/// in parallel on `pool`; preserves cell order.
[[nodiscard]] std::vector<CellResult> run_cells(
    const std::vector<ExperimentConfig>& cells, std::size_t repetitions,
    ThreadPool& pool);

}  // namespace glap::harness
