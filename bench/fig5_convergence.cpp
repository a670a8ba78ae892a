// Fig. 5 — convergence of Q-values across PMs.
//
// Reproduces the paper's cosine-similarity-per-cycle curves for the
// two-phase gossip learning protocol, in two variants per VM:PM ratio:
//   WOG: learning phase only (aggregation disabled) — similarity plateaus
//        well below 1 because every PM trains on local+neighbor profiles;
//   WG:  learning followed by gossip aggregation — similarity converges
//        rapidly to 1 (identical Q-values everywhere).
#include "bench_util.hpp"

using namespace glap;

int main() {
  const harness::BenchScale scale = bench::scale_from_env();
  bench::print_bench_header("Fig. 5 — Q-value convergence (WOG vs WG)",
                            scale);

  const std::size_t size = scale.sizes.back();
  ThreadPool pool;

  std::vector<harness::ExperimentConfig> cells;
  for (std::size_t ratio : scale.ratios) {
    for (bool with_gossip : {false, true}) {
      harness::ExperimentConfig config;
      config.algorithm = harness::Algorithm::kGlap;
      config.pm_count = size;
      config.vm_ratio = ratio;
      apply_scale(config, scale);
      config.rounds = 1;  // only the warmup (learning) window matters here
      config.track_convergence = true;
      config.convergence_pairs = 64;
      if (!with_gossip) {
        // WOG: all pre-run rounds are learning, none aggregate.
        config.glap.learning_rounds = config.warmup_rounds;
        config.glap.aggregation_rounds = 0;
      }
      cells.push_back(config);
    }
  }

  const auto results = harness::run_cells(cells, 1, pool);

  harness::BenchReport report("fig5_convergence",
                              "Fig. 5 — Q-value convergence (WOG vs WG)");
  report.set_scale(scale);
  ConsoleTable summary(
      {"ratio", "variant", "plateau", "final", "rounds-to-0.999"});

  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& config = results[i].config;
    const auto& series = results[i].runs.front().convergence;
    const bool with_gossip = config.glap.aggregation_rounds > 0;
    std::printf("ratio %zu, %s (%zu PMs):\n", config.vm_ratio,
                with_gossip ? "WG (learning+aggregation)"
                            : "WOG (learning only)",
                config.pm_count);
    std::printf("  cycle:similarity ");
    const std::size_t step = std::max<std::size_t>(1, series.size() / 12);
    for (std::size_t c = 0; c < series.size(); c += step)
      std::printf(" %zu:%.3f", c + 1, series[c]);
    if (!series.empty())
      std::printf("  final:%.4f", series.back());
    std::printf("\n");

    // Plateau = mean over the last 10 warmup rounds; rounds-to-0.999 is
    // the first cycle at or above that similarity (WG hits it, WOG not).
    RunningStats tail;
    const std::size_t tail_from =
        series.size() > 10 ? series.size() - 10 : 0;
    for (std::size_t c = tail_from; c < series.size(); ++c)
      tail.add(series[c]);
    std::string to_unity = "-";
    for (std::size_t c = 0; c < series.size(); ++c)
      if (series[c] >= 0.999) {
        to_unity = std::to_string(c + 1);
        break;
      }
    summary.add_row({std::to_string(config.vm_ratio),
                     with_gossip ? "WG" : "WOG",
                     format_double(tail.mean(), 3),
                     series.empty() ? "-" : format_double(series.back(), 4),
                     to_unity});
  }

  report.add_table("summary", summary);
  report.write();

  std::printf(
      "\nexpected shape (paper): WOG plateaus well below 1 for every "
      "ratio; WG converges rapidly to 1.0 once aggregation starts.\n");
  return 0;
}
