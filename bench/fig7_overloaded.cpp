// Fig. 7 — the number of overloaded PMs.
//
// Per the paper: the overloaded-PM count is sampled at the end of every
// round in every execution, and the median / 10th / 90th percentiles of
// the pooled samples are reported per (size, ratio, algorithm).
#include "bench_util.hpp"

using namespace glap;
using bench::Algorithm;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header(
      "Fig. 7 — overloaded PMs per round (median, p10, p90)", scale);

  ThreadPool pool;
  const auto cells = bench::build_cells(scale, bench::all_algorithms());
  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table(
      {"cell", "algorithm", "median", "p10", "p90", "mean"});
  for (const auto& cell : results) {
    const auto summary = cell.pooled_round_summary(
        [](const harness::RunResult& r) { return r.overloaded_series(); });
    table.add_row({bench::cell_label(cell.config),
                   std::string(to_string(cell.config.algorithm)),
                   format_double(summary.median, 1),
                   format_double(summary.p10, 1),
                   format_double(summary.p90, 1),
                   format_double(summary.mean, 2)});
  }
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report(
      "fig7_overloaded",
      "Fig. 7 — overloaded PMs per round (median, p10, p90)");
  report.set_scale(scale);
  report.add_table("overloaded", table);

  // Headline reduction percentages (paper: GLAP cuts overloaded PMs by
  // 43% / 78% / 73% vs EcoCloud / GRMP / PABFD).
  const double paper_reduction[] = {43.0, 78.0, 73.0};
  ConsoleTable reductions({"vs", "paper", "measured"});
  std::printf("\nGLAP overload reduction vs each baseline (mean over "
              "cells, by mean overloaded count):\n");
  std::size_t b = 0;
  for (Algorithm baseline : {Algorithm::kEcoCloud, Algorithm::kGrmp,
                             Algorithm::kPabfd}) {
    double glap_sum = 0.0, base_sum = 0.0;
    for (const auto& cell : results) {
      const double mean = cell.mean_of(
          [](const harness::RunResult& r) { return r.mean_overloaded(); });
      if (cell.config.algorithm == Algorithm::kGlap) glap_sum += mean;
      if (cell.config.algorithm == baseline) base_sum += mean;
    }
    const double reduction =
        base_sum > 0.0 ? 100.0 * (1.0 - glap_sum / base_sum) : 0.0;
    std::printf("  vs %-8s: %5.1f%% fewer overloaded PMs\n",
                std::string(to_string(baseline)).c_str(), reduction);
    reductions.add_row({std::string(to_string(baseline)),
                        "-" + format_double(paper_reduction[b], 0) + "%",
                        format_double(-reduction, 1) + "%"});
    ++b;
  }
  report.add_table("reductions", reductions);
  report.write();
  std::printf("\nexpected shape (paper): GLAP smallest everywhere; GRMP "
              "worst; stable across sizes and ratios.\n");
  return 0;
}
