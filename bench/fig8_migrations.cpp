// Fig. 8 — the number of migrations per round (median, p10, p90), plus
// the run totals the reduction percentages are computed from.
#include "bench_util.hpp"

using namespace glap;
using bench::Algorithm;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header(
      "Fig. 8 — migrations per round (median, p10, p90) and totals", scale);

  ThreadPool pool;
  const auto cells = bench::build_cells(scale, bench::all_algorithms());
  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table({"cell", "algorithm", "median/rd", "p10", "p90",
                      "total(mean)"});
  for (const auto& cell : results) {
    const auto summary =
        cell.pooled_round_summary([](const harness::RunResult& r) {
          return r.migrations_per_round_series();
        });
    const double total = cell.mean_of([](const harness::RunResult& r) {
      return static_cast<double>(r.total_migrations);
    });
    table.add_row({bench::cell_label(cell.config),
                   std::string(to_string(cell.config.algorithm)),
                   format_double(summary.median, 1),
                   format_double(summary.p10, 1),
                   format_double(summary.p90, 1), format_double(total, 0)});
  }
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report(
      "fig8_migrations",
      "Fig. 8 — migrations per round (median, p10, p90) and totals");
  report.set_scale(scale);
  report.add_table("migrations", table);

  const double paper_reduction[] = {23.0, 37.0, 70.0};
  ConsoleTable reductions({"vs", "paper", "measured"});
  std::printf("\nGLAP migration reduction vs each baseline (paper: 23%% / "
              "37%% / 70%% fewer than EcoCloud / GRMP / PABFD):\n");
  std::size_t b = 0;
  for (Algorithm baseline : {Algorithm::kEcoCloud, Algorithm::kGrmp,
                             Algorithm::kPabfd}) {
    double glap_sum = 0.0, base_sum = 0.0;
    for (const auto& cell : results) {
      const double total = cell.mean_of([](const harness::RunResult& r) {
        return static_cast<double>(r.total_migrations);
      });
      if (cell.config.algorithm == Algorithm::kGlap) glap_sum += total;
      if (cell.config.algorithm == baseline) base_sum += total;
    }
    const double reduction =
        base_sum > 0.0 ? 100.0 * (1.0 - glap_sum / base_sum) : 0.0;
    std::printf("  vs %-8s: %5.1f%% fewer migrations\n",
                std::string(to_string(baseline)).c_str(), reduction);
    reductions.add_row({std::string(to_string(baseline)),
                        "-" + format_double(paper_reduction[b], 0) + "%",
                        format_double(-reduction, 1) + "%"});
    ++b;
  }
  report.add_table("reductions", reductions);
  report.write();
  std::printf("\nexpected shape (paper): GLAP fewest migrations, PABFD by "
              "far the most; totals grow with the workload ratio.\n");
  return 0;
}
