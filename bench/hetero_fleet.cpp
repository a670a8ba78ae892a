// Heterogeneous-fleet experiment: a mixed G4/G5 server fleet hosting a
// mix of VM sizes (the comparator work's testbed shape [10]). Checks
// whether the paper's orderings survive heterogeneity and shows PABFD's
// power-aware placement at work (it is the only policy whose placement
// objective sees the differing power models).
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header(
      "Heterogeneous fleet — mixed G4/G5 PMs, mixed VM sizes", scale);

  const std::size_t size = scale.sizes.back();
  ThreadPool pool;

  std::vector<harness::ExperimentConfig> cells;
  for (std::size_t ratio : scale.ratios) {
    // Mixed VM sizes raise the average allocation ~30%; ratio 4 would
    // exceed the fleet's nominal capacity (no admission controller would
    // accept it), so the heterogeneous sweep stops at ratio 3.
    if (ratio > 3) continue;
    for (bench::Algorithm algo : bench::all_algorithms()) {
      harness::ExperimentConfig config;
      config.algorithm = algo;
      config.pm_count = size;
      config.vm_ratio = ratio;
      apply_scale(config, scale);
      config.fleet.pm_classes = {{cloud::hp_proliant_ml110_g5(), 0.5},
                                 {cloud::hp_proliant_ml110_g4(), 0.5}};
      config.fleet.vm_classes = {{cloud::ec2_micro(), 0.8},
                                 {cloud::ec2_small(), 0.2}};
      cells.push_back(config);
    }
  }

  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table({"cell", "algorithm", "overloaded(mean)",
                      "active(mean)", "migrations", "pm-energy(MJ)",
                      "SLAV"});
  for (const auto& cell : results) {
    table.add_row(
        {bench::cell_label(cell.config),
         std::string(to_string(cell.config.algorithm)),
         format_double(cell.mean_of([](const harness::RunResult& r) {
           return r.mean_overloaded();
         })),
         format_double(cell.mean_of([](const harness::RunResult& r) {
           return r.mean_active();
         }), 1),
         format_double(cell.mean_of([](const harness::RunResult& r) {
           return static_cast<double>(r.total_migrations);
         }), 0),
         format_double(cell.mean_of([](const harness::RunResult& r) {
           return r.total_energy_j / 1e6;
         }), 2),
         format_compact(cell.mean_of(
             [](const harness::RunResult& r) { return r.slav; }))});
  }
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report(
      "hetero_fleet", "Heterogeneous fleet — mixed G4/G5 PMs");
  report.set_scale(scale);
  report.add_table("fleet", table);
  report.write();

  std::printf("\nreading: the homogeneous-fleet orderings (overloads "
              "GLAP < EcoCloud < PABFD < GRMP) should survive "
              "heterogeneity; GLAP's per-PM states adapt naturally "
              "because each PM classifies utilization against its own "
              "capacity.\n");
  return 0;
}
