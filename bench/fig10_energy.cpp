// Fig. 10 — energy overhead of migrations (paper Eq. 3) per (size,
// ratio, algorithm), plus total PM energy for context. The paper's
// shape: PABFD consumes by far the most migration energy, GLAP the
// least; more migrations do not always mean more energy (τ depends on
// the VM's resident memory at migration time).
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header("Fig. 10 — migration energy overhead (Eq. 3)",
                            scale);

  ThreadPool pool;
  const auto cells = bench::build_cells(scale, bench::all_algorithms());
  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table({"cell", "algorithm", "mig-energy(kJ)", "migrations",
                      "J/migration", "pm-energy(MJ)"});
  for (const auto& cell : results) {
    const double energy = cell.mean_of([](const harness::RunResult& r) {
      return r.migration_energy_j;
    });
    const double migs = cell.mean_of([](const harness::RunResult& r) {
      return static_cast<double>(r.total_migrations);
    });
    const double total = cell.mean_of([](const harness::RunResult& r) {
      return r.total_energy_j;
    });
    table.add_row({bench::cell_label(cell.config),
                   std::string(to_string(cell.config.algorithm)),
                   format_double(energy / 1000.0, 2),
                   format_double(migs, 0),
                   format_double(migs > 0 ? energy / migs : 0.0, 1),
                   format_double(total / 1e6, 2)});
  }
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report(
      "fig10_energy", "Fig. 10 — migration energy overhead (Eq. 3)");
  report.set_scale(scale);
  report.add_table("energy", table);
  report.write();

  std::printf("\nexpected shape (paper): migration-energy ordering GLAP "
              "lowest, PABFD highest; energy tracks migration count but "
              "not proportionally (τ varies with resident memory).\n");
  return 0;
}
