// Fig. 9 — cumulative number of migrations over the day, per workload
// ratio, at the largest configured cluster size. The paper's shape: the
// three distributed algorithms front-load their migrations (concave
// curves flattening after the initial consolidation burst) while PABFD
// grows almost linearly for the whole day.
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header("Fig. 9 — cumulative migrations over time",
                            scale);

  const std::size_t size = scale.sizes.back();
  ThreadPool pool;

  harness::BenchScale one_size = scale;
  one_size.sizes = {size};
  const auto cells = bench::build_cells(one_size, bench::all_algorithms());
  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  // Checkpoints across the evaluation window; one merged table with a
  // ratio column mirrors the per-ratio console output in the report.
  const std::size_t rounds = results.front().runs.front().rounds.size();
  const std::size_t checkpoints = 8;
  ConsoleTable merged([&] {
    std::vector<std::string> header{"ratio", "algorithm"};
    for (std::size_t c = 1; c <= checkpoints; ++c)
      header.push_back("r" + std::to_string(c * rounds / checkpoints));
    return header;
  }());

  for (std::size_t ratio_idx = 0; ratio_idx < scale.ratios.size();
       ++ratio_idx) {
    std::printf("-- %zu PMs, ratio %zu --\n", size,
                scale.ratios[ratio_idx]);
    ConsoleTable table([&] {
      std::vector<std::string> header{"algorithm"};
      for (std::size_t c = 1; c <= checkpoints; ++c)
        header.push_back("r" +
                         std::to_string(c * rounds / checkpoints));
      return header;
    }());
    for (const auto& cell : results) {
      if (cell.config.vm_ratio != scale.ratios[ratio_idx]) continue;
      std::vector<std::string> row{
          std::string(to_string(cell.config.algorithm))};
      for (std::size_t c = 1; c <= checkpoints; ++c) {
        const std::size_t round = c * rounds / checkpoints - 1;
        RunningStats cum;
        for (const auto& run : cell.runs)
          cum.add(static_cast<double>(run.rounds[round].migrations_cum));
        row.push_back(format_double(cum.mean(), 0));
      }
      std::vector<std::string> merged_row{
          std::to_string(scale.ratios[ratio_idx])};
      merged_row.insert(merged_row.end(), row.begin(), row.end());
      merged.add_row(std::move(merged_row));
      table.add_row(std::move(row));
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  }

  harness::BenchReport report("fig9_cumulative",
                              "Fig. 9 — cumulative migrations over time");
  report.set_scale(one_size);
  report.add_table("checkpoints", merged);
  report.write();
  std::printf("expected shape (paper): distributed algorithms (GLAP, "
              "EcoCloud, GRMP) are concave — most migrations early; PABFD "
              "keeps migrating at a near-constant rate (linear).\n");
  return 0;
}
