// Fig. 6 — packing aggressiveness vs SLA cost.
//
// For every (size, ratio): mean active PMs per round, the BFD oracle
// packing of the final round (the paper's "baseline packing without any
// SLA violation"), and the mean fraction of active PMs that are
// overloaded. The paper's shape: GRMP and PABFD switch off PMs at or
// below the baseline but overload a large share of the survivors; GLAP
// and EcoCloud stay slightly above the baseline with far fewer
// overloaded PMs (GLAP lowest).
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header(
      "Fig. 6 — active PMs vs BFD baseline, overloaded fraction", scale);

  ThreadPool pool;
  const auto cells = bench::build_cells(scale, bench::all_algorithms());
  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table({"cell", "algorithm", "active(mean)", "bfd-oracle",
                      "active/oracle", "overloaded/active"});
  for (const auto& cell : results) {
    const double active = cell.mean_of(
        [](const harness::RunResult& r) { return r.mean_active(); });
    const double oracle = cell.mean_of([](const harness::RunResult& r) {
      return static_cast<double>(r.final_bfd_bins);
    });
    const double frac = cell.mean_of([](const harness::RunResult& r) {
      return r.mean_overloaded_fraction();
    });
    table.add_row({bench::cell_label(cell.config),
                   std::string(to_string(cell.config.algorithm)),
                   format_double(active, 1), format_double(oracle, 1),
                   format_double(oracle > 0 ? active / oracle : 0.0, 2),
                   format_double(frac, 3)});
  }
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report(
      "fig6_packing", "Fig. 6 — active PMs vs BFD baseline");
  report.set_scale(scale);
  report.add_table("packing", table);
  report.write();

  std::printf(
      "\nexpected shape (paper): overloaded/active ordering GLAP < "
      "EcoCloud < PABFD < GRMP; GRMP and PABFD pack at/below the oracle, "
      "GLAP and EcoCloud slightly above it.\n");
  return 0;
}
