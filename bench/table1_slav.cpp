// Table I — the SLAV metric (SLAVO × SLALM) for every cluster size and
// workload ratio. The paper's shape: GLAP < EcoCloud < PABFD < GRMP in
// every cell, and SLAV grows with the workload ratio for every protocol.
#include "bench_util.hpp"

using namespace glap;
using bench::Algorithm;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header("Table I — SLAV per size and ratio", scale);

  ThreadPool pool;
  const auto cells = bench::build_cells(scale, bench::all_algorithms());
  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table({"cell", "GLAP", "EcoCloud", "GRMP", "PABFD"});
  for (std::size_t size : scale.sizes) {
    for (std::size_t ratio : scale.ratios) {
      std::vector<std::string> row{std::to_string(size) + "-" +
                                   std::to_string(ratio)};
      for (Algorithm algo : {Algorithm::kGlap, Algorithm::kEcoCloud,
                             Algorithm::kGrmp, Algorithm::kPabfd}) {
        for (const auto& cell : results) {
          if (cell.config.pm_count != size ||
              cell.config.vm_ratio != ratio ||
              cell.config.algorithm != algo)
            continue;
          row.push_back(format_compact(cell.mean_of(
              [](const harness::RunResult& r) { return r.slav; })));
        }
      }
      table.add_row(std::move(row));
    }
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nper-component means (SLAVO = overload time share, SLALM "
              "= migration degradation):\n");
  ConsoleTable parts({"cell", "algorithm", "SLAVO", "SLALM", "SLAV"});
  for (const auto& cell : results) {
    parts.add_row(
        {bench::cell_label(cell.config),
         std::string(to_string(cell.config.algorithm)),
         format_compact(cell.mean_of(
             [](const harness::RunResult& r) { return r.slavo; })),
         format_compact(cell.mean_of(
             [](const harness::RunResult& r) { return r.slalm; })),
         format_compact(cell.mean_of(
             [](const harness::RunResult& r) { return r.slav; }))});
  }
  std::fputs(parts.render().c_str(), stdout);

  harness::BenchReport report("table1_slav",
                              "Table I — SLAV per size and ratio");
  report.set_scale(scale);
  report.add_table("slav", table);
  report.add_table("components", parts);
  report.write();

  std::printf("\nexpected shape (paper): SLAV ordering GLAP < EcoCloud < "
              "PABFD < GRMP in each cell; SLAV grows with the ratio.\n");
  return 0;
}
