// Ablation bench for GLAP's two central design choices (DESIGN.md §3):
//
//   1. the average/current state split — states and actions from running
//      averages with outcomes from current demands (use_average_state)
//      vs the "naive" current-only variant the paper argues against;
//   2. the aggregation phase — unified Q-values via gossip vs each PM
//      consolidating on its own locally trained tables.
//
// Reported per variant: overloaded PMs, active PMs, migrations, SLAV.
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header("Ablation — GLAP design choices", scale);

  const std::size_t size = scale.sizes.back();
  ThreadPool pool;

  struct Variant {
    const char* name;
    bool use_average;
    bool aggregate;
  };
  const std::vector<Variant> variants{
      {"full GLAP", true, true},
      {"no avg/current split", false, true},
      {"no aggregation", true, false},
  };

  std::vector<harness::ExperimentConfig> cells;
  for (std::size_t ratio : scale.ratios) {
    for (const Variant& v : variants) {
      harness::ExperimentConfig config;
      config.algorithm = harness::Algorithm::kGlap;
      config.pm_count = size;
      config.vm_ratio = ratio;
      apply_scale(config, scale);
      config.glap.use_average_state = v.use_average;
      if (!v.aggregate) {
        config.glap.learning_rounds += config.glap.aggregation_rounds;
        config.glap.aggregation_rounds = 0;
      }
      cells.push_back(config);
    }
  }

  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table({"cell", "variant", "overloaded(mean)",
                      "active(mean)", "migrations", "SLAV"});
  std::size_t idx = 0;
  for (std::size_t ratio : scale.ratios) {
    (void)ratio;
    for (const Variant& v : variants) {
      const auto& cell = results[idx++];
      table.add_row(
          {bench::cell_label(cell.config), v.name,
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return r.mean_overloaded();
           })),
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return r.mean_active();
           })),
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return static_cast<double>(r.total_migrations);
           }), 0),
           format_compact(cell.mean_of(
               [](const harness::RunResult& r) { return r.slav; }))});
    }
  }
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report("ablation_glap",
                              "Ablation — GLAP design choices");
  report.set_scale(scale);
  report.add_table("variants", table);
  report.write();

  std::printf("\nexpected: full GLAP matches or beats both ablations on "
              "overloaded PMs — the average/current split is what lets "
              "the IN-table anticipate demand variability, and unified "
              "tables make π_in decisions consistent across PMs.\n");
  return 0;
}
