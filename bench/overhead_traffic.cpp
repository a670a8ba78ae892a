// Scalability overhead bench (supports the paper's §I scalability
// argument): control-plane traffic per protocol as the cluster grows —
// gossip protocols exchange O(1) messages per PM per round while the
// centralized manager polls every PM every round.
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header(
      "Overhead — control-plane traffic per protocol and cluster size",
      scale);

  ThreadPool pool;
  std::vector<std::size_t> sizes = scale.sizes;
  if (sizes.size() == 1) sizes = {sizes[0] / 2, sizes[0], sizes[0] * 2};

  std::vector<harness::ExperimentConfig> cells;
  for (std::size_t size : sizes)
    for (bench::Algorithm algo : bench::all_algorithms()) {
      harness::ExperimentConfig config;
      config.algorithm = algo;
      config.pm_count = size;
      config.vm_ratio = scale.ratios[0];
      apply_scale(config, scale);
      cells.push_back(config);
    }

  const auto results = harness::run_cells(cells, 1, pool);

  ConsoleTable table({"pms", "algorithm", "msgs(eval)", "msgs/pm/round",
                      "bytes(eval)"});
  std::size_t idx = 0;
  for (std::size_t size : sizes) {
    for (bench::Algorithm algo : bench::all_algorithms()) {
      (void)algo;
      const auto& cell = results[idx++];
      const auto& run = cell.runs.front();
      const double per_pm_round =
          static_cast<double>(run.messages) /
          (static_cast<double>(size) * cell.config.rounds);
      table.add_row({std::to_string(size),
                     std::string(to_string(cell.config.algorithm)),
                     std::to_string(run.messages),
                     format_double(per_pm_round, 2),
                     std::to_string(run.bytes)});
    }
  }
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report(
      "overhead_traffic",
      "Overhead — control-plane traffic per protocol and cluster size");
  report.set_scale(scale);
  report.add_table("traffic", table);
  report.write();

  std::printf("\nreading: gossip protocols stay at O(1) messages per PM "
              "per round as the cluster grows; PABFD's manager polls all "
              "N PMs every round (plus migration commands), the "
              "scalability bottleneck the paper argues against.\n");
  return 0;
}
