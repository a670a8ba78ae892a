// Substrate ablations:
//   1. GLAP over Cyclon vs Newscast — does the consolidation result
//      depend on which random-peer-sampling gossip layer carries it?
//      (It shouldn't: GLAP only needs uniform-ish live samples.)
//   2. PABFD with its three adaptive-threshold estimators (MAD — the
//      GLAP paper's configuration — vs IQR vs local regression).
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header("Ablation — overlay layer & PABFD estimator",
                            scale);

  const std::size_t size = scale.sizes.back();
  const std::size_t ratio = scale.ratios.size() > 1 ? scale.ratios[1]
                                                    : scale.ratios[0];
  ThreadPool pool;

  std::vector<harness::ExperimentConfig> cells;
  std::vector<std::string> labels;

  for (harness::OverlayKind overlay :
       {harness::OverlayKind::kCyclon, harness::OverlayKind::kNewscast}) {
    harness::ExperimentConfig config;
    config.algorithm = harness::Algorithm::kGlap;
    config.pm_count = size;
    config.vm_ratio = ratio;
    apply_scale(config, scale);
    config.overlay = overlay;
    cells.push_back(config);
    labels.push_back("GLAP / " + std::string(to_string(overlay)));
  }
  for (baselines::ThresholdEstimator est :
       {baselines::ThresholdEstimator::kMad,
        baselines::ThresholdEstimator::kIqr,
        baselines::ThresholdEstimator::kLr}) {
    harness::ExperimentConfig config;
    config.algorithm = harness::Algorithm::kPabfd;
    config.pm_count = size;
    config.vm_ratio = ratio;
    apply_scale(config, scale);
    config.pabfd.estimator = est;
    cells.push_back(config);
    labels.push_back("PABFD / " + std::string(to_string(est)));
  }

  const auto results = harness::run_cells(cells, scale.repetitions, pool);

  ConsoleTable table({"variant", "overloaded(mean)", "active(mean)",
                      "migrations", "SLAV"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& cell = results[i];
    table.add_row(
        {labels[i],
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
  std::fputs(table.render().c_str(), stdout);

  harness::BenchReport report("ablation_substrate",
                              "Ablation — overlay layer & PABFD estimator");
  report.set_scale(scale);
  report.add_table("substrate", table);
  report.write();

  std::printf("\nexpected: GLAP's numbers are overlay-agnostic (both "
              "layers provide uniform-ish live peer samples); PABFD's "
              "estimator shifts its aggressiveness — lower thresholds "
              "(more variance- or trend-sensitive estimators) evict "
              "more.\n");
  return 0;
}
