// Runs all four consolidation policies (GLAP, EcoCloud, GRMP, PABFD) on
// the identical workload and prints the paper's headline comparison:
// overloaded PMs, active PMs vs the BFD oracle, migrations, migration
// energy, and the SLAV metric.
//
// Usage: compare_policies [pms] [ratio]
#include <cstdio>
#include <stdexcept>

#include "common/cli_number.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "harness/sweep.hpp"

int main(int argc, char** argv) {
  using namespace glap;
  using harness::Algorithm;

  std::size_t pm_count = 300;
  std::size_t ratio = 3;
  try {
    if (argc > 1)
      pm_count = cli::parse_uint("pms", argv[1], 1, sim::kInvalidNode - 1);
    if (argc > 2)
      ratio = cli::parse_uint("ratio", argv[2], 1, sim::kInvalidNode - 1);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "compare_policies: %s\n", e.what());
    return 2;
  }

  std::vector<harness::ExperimentConfig> cells;
  for (Algorithm algo : {Algorithm::kGlap, Algorithm::kEcoCloud,
                         Algorithm::kGrmp, Algorithm::kPabfd}) {
    harness::ExperimentConfig config;
    config.algorithm = algo;
    config.pm_count = pm_count;
    config.vm_ratio = ratio;
    config.rounds = 360;
    config.warmup_rounds = 240;
    config.fit_glap_phases_to_warmup();
    cells.push_back(config);
  }

  std::printf("comparing policies on %zu PMs, %zu VMs (ratio %zu)\n",
              pm_count, pm_count * ratio, ratio);
  ThreadPool pool;
  const auto results = harness::run_cells(cells, /*repetitions=*/3, pool);

  ConsoleTable table({"algorithm", "overloaded(mean)", "active(mean)",
                      "bfd-oracle", "migrations", "mig-energy(kJ)", "SLAV"});
  for (const auto& cell : results) {
    table.add_row(
        {std::string(to_string(cell.config.algorithm)),
         format_double(cell.mean_of([](const harness::RunResult& r) {
           return r.mean_overloaded();
         })),
         format_double(cell.mean_of([](const harness::RunResult& r) {
           return r.mean_active();
         })),
         format_double(cell.mean_of([](const harness::RunResult& r) {
           return r.final_bfd_bins;
         })),
         format_double(cell.mean_of([](const harness::RunResult& r) {
           return static_cast<double>(r.total_migrations);
         }), 0),
         format_double(cell.mean_of([](const harness::RunResult& r) {
           return r.migration_energy_j / 1000.0;
         })),
         format_compact(cell.mean_of(
             [](const harness::RunResult& r) { return r.slav; }))});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
