// Churn experiment: consolidation under VM arrivals/departures — the
// operating regime the paper's learning re-trigger policy (§IV-B) was
// designed for. Compares all four policies under increasing churn and
// runs GLAP with the re-learning oracle on vs off (ablation of the
// "learning runs as required by a predefined policy" mechanism).
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header("Churn — consolidation under VM churn", scale);

  const std::size_t size = scale.sizes.back();
  const std::size_t ratio = scale.ratios.size() > 1 ? scale.ratios[1]
                                                    : scale.ratios[0];
  ThreadPool pool;

  struct ChurnLevel {
    const char* name;
    double departure;
    double arrival;
  };
  const std::vector<ChurnLevel> levels{
      {"no churn", 0.0, 0.0},
      {"moderate churn", 0.005, 0.02},
      {"heavy churn", 0.02, 0.08},
  };

  auto base_config = [&](bench::Algorithm algo, const ChurnLevel& level) {
    harness::ExperimentConfig config;
    config.algorithm = algo;
    config.pm_count = size;
    config.vm_ratio = ratio;
    apply_scale(config, scale);
    config.churn.enabled = level.departure > 0.0 || level.arrival > 0.0;
    config.churn.departure_prob = level.departure;
    config.churn.arrival_prob = level.arrival;
    config.churn.initial_placed_fraction = 0.8;
    config.churn.relearn_min_interval = 40;
    config.churn.relearn_learning_rounds = 20;
    config.churn.relearn_aggregation_rounds = 10;
    return config;
  };

  std::vector<harness::ExperimentConfig> cells;
  for (const ChurnLevel& level : levels) {
    for (bench::Algorithm algo : bench::all_algorithms())
      cells.push_back(base_config(algo, level));
    // GLAP ablation: oracle disabled.
    auto no_relearn = base_config(bench::Algorithm::kGlap, level);
    no_relearn.churn.glap_relearn = false;
    cells.push_back(no_relearn);
  }

  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table({"churn", "algorithm", "overloaded(mean)",
                      "active(mean)", "migrations", "relearns", "SLAV"});
  std::size_t idx = 0;
  for (const ChurnLevel& level : levels) {
    for (std::size_t a = 0; a < bench::all_algorithms().size() + 1; ++a) {
      const auto& cell = results[idx++];
      const bool is_ablation = a == bench::all_algorithms().size();
      std::string name = std::string(to_string(cell.config.algorithm));
      if (is_ablation) name += " (no relearn)";
      table.add_row(
          {level.name, name,
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
             return static_cast<double>(r.relearn_triggers);
           }), 1),
           format_compact(cell.mean_of(
               [](const harness::RunResult& r) { return r.slav; }))});
    }
  }
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report("churn_dynamics",
                              "Churn — consolidation under VM churn");
  report.set_scale(scale);
  report.add_table("churn", table);
  report.write();

  std::printf("\nreading: churn stresses every policy (arrivals land by "
              "allocation, not by learned risk); GLAP's re-learning "
              "oracle refreshes the Q-tables as the workload population "
              "shifts — compare the GLAP rows against 'no relearn'.\n");
  return 0;
}
