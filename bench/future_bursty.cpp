// Future-work experiment (paper §VI): "we would like to evaluate our
// work under bursty workload patterns."
//
// Sweeps the bursty-archetype weight of the workload ensemble from the
// default mix to an almost-entirely-bursty cluster and reports how each
// policy's overload count and migration volume degrade. The interesting
// question the paper poses: does GLAP's learned acceptance policy keep
// its edge when bursts dominate, or does the average/current split lose
// its predictive power?
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header(
      "Future work — increasing workload burstiness", scale);

  const std::size_t size = scale.sizes.back();
  const std::size_t ratio = scale.ratios.size() > 1 ? scale.ratios[1]
                                                    : scale.ratios[0];
  ThreadPool pool;

  struct BurstMix {
    const char* name;
    double w_bursty;
    double w_spike;
  };
  const std::vector<BurstMix> mixes{
      {"default mix", 0.25, 0.10},
      {"bursty-heavy", 0.50, 0.20},
      {"almost all bursty", 0.70, 0.25},
  };

  std::vector<harness::ExperimentConfig> cells;
  for (const BurstMix& mix : mixes) {
    for (bench::Algorithm algo : bench::all_algorithms()) {
      harness::ExperimentConfig config;
      config.algorithm = algo;
      config.pm_count = size;
      config.vm_ratio = ratio;
      apply_scale(config, scale);
      const double rest = 1.0 - mix.w_bursty - mix.w_spike;
      config.workload.w_bursty = mix.w_bursty;
      config.workload.w_spike = mix.w_spike;
      config.workload.w_stable = rest * 0.25;
      config.workload.w_diurnal = rest * 0.375;
      config.workload.w_random_walk = rest * 0.375;
      cells.push_back(config);
    }
  }

  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table({"workload", "algorithm", "overloaded(mean)",
                      "active(mean)", "migrations", "SLAV"});
  std::size_t idx = 0;
  for (const BurstMix& mix : mixes) {
    for (bench::Algorithm algo : bench::all_algorithms()) {
      (void)algo;
      const auto& cell = results[idx++];
      table.add_row(
          {mix.name, std::string(to_string(cell.config.algorithm)),
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return r.mean_overloaded();
           })),
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return r.mean_active();
           }), 1),
           format_double(cell.mean_of([](const harness::RunResult& r) {
             return static_cast<double>(r.total_migrations);
           }), 0),
           format_compact(cell.mean_of(
               [](const harness::RunResult& r) { return r.slav; }))});
    }
  }
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report(
      "future_bursty", "Future work — increasing workload burstiness");
  report.set_scale(scale);
  report.add_table("burstiness", table);
  report.write();

  std::printf("\nreading: every policy overloads more as bursts dominate; "
              "the question is whether GLAP's relative advantage (lowest "
              "overloads) survives — the learned IN-table keys on the "
              "avg/current gap that bursty VMs exhibit.\n");
  return 0;
}
