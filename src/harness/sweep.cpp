#include "harness/sweep.hpp"

namespace glap::harness {

PercentileSummary CellResult::pooled_round_summary(
    const std::function<std::vector<double>(const RunResult&)>& series)
    const {
  std::vector<double> pooled;
  for (const auto& run : runs) {
    auto s = series(run);
    pooled.insert(pooled.end(), s.begin(), s.end());
  }
  return summarize(std::move(pooled));
}

double CellResult::mean_of(
    const std::function<double(const RunResult&)>& metric) const {
  RunningStats stats;
  for (const auto& run : runs) stats.add(metric(run));
  return stats.mean();
}

std::vector<CellResult> run_cells(const std::vector<ExperimentConfig>& cells,
                                  std::size_t repetitions, ThreadPool& pool) {
  GLAP_REQUIRE(repetitions > 0, "need at least one repetition");
  std::vector<CellResult> results(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    results[c].config = cells[c];
    results[c].runs.resize(repetitions);
  }
  // One flat index space over cells × repetitions so a straggler cell
  // cannot serialize the tail; parallel_for also owns error propagation.
  parallel_for(pool, cells.size() * repetitions, [&](std::size_t i) {
    const std::size_t c = i / repetitions;
    const std::size_t rep = i % repetitions;
    ExperimentConfig config = cells[c];
    config.seed = cells[c].seed + rep;
    results[c].runs[rep] = run_experiment(config);
  });
  return results;
}

}  // namespace glap::harness
