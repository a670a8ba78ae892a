// Trace explorer: generate the synthetic Google-Cluster-like ensemble,
// print distributional statistics and histograms, and optionally export
// the materialized trace as CSV (loadable back via TraceStore::load_csv,
// the same path a user with the real Google traces would use).
//
// Usage: trace_explorer [n_vms] [rounds] [csv_path]
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/cli_number.hpp"
#include "common/stats.hpp"
#include "trace/google_synth.hpp"
#include "trace/trace_store.hpp"

int main(int argc, char** argv) {
  using namespace glap;

  constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
  std::size_t n_vms = 200;
  std::size_t rounds = 720;
  const char* csv_path = nullptr;
  try {
    if (argc > 1) n_vms = cli::parse_uint("n_vms", argv[1], 1, kMaxCount);
    if (argc > 2) rounds = cli::parse_uint("rounds", argv[2], 1, kMaxCount);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "trace_explorer: %s\n", e.what());
    return 2;
  }
  if (argc > 3) csv_path = argv[3];

  const trace::GoogleSynth synth({}, /*seed=*/2026);
  std::vector<trace::DemandModelPtr> owned;
  std::vector<trace::DemandModel*> models;
  for (std::size_t v = 0; v < n_vms; ++v) {
    owned.push_back(synth.make_model(v));
    models.push_back(owned.back().get());
  }
  const trace::TraceStore store = trace::TraceStore::from_models(models, rounds);

  Histogram mean_hist(0.0, 1.0, 10);
  Histogram sd_hist(0.0, 0.5, 10);
  RunningStats ensemble_cpu, ensemble_mem, volatility;
  for (std::size_t v = 0; v < n_vms; ++v) {
    RunningStats cpu;
    for (std::size_t r = 0; r < rounds; ++r) cpu.add(store.at(v, r).cpu);
    mean_hist.add(cpu.mean());
    sd_hist.add(cpu.stddev());
    ensemble_cpu.add(cpu.mean());
    volatility.add(cpu.stddev());
    ensemble_mem.add(store.series_mean(v).mem);
  }

  std::printf("synthetic Google-like ensemble: %zu VMs x %zu rounds\n\n",
              n_vms, rounds);
  std::printf("ensemble mean CPU demand : %.3f of allocation\n",
              ensemble_cpu.mean());
  std::printf("ensemble mean MEM demand : %.3f of allocation\n",
              ensemble_mem.mean());
  std::printf("mean per-VM CPU stddev   : %.3f (volatility)\n\n",
              volatility.mean());

  std::printf("distribution of per-VM mean CPU demand:\n%s\n",
              mean_hist.render(40).c_str());
  std::printf("distribution of per-VM CPU volatility (stddev):\n%s\n",
              sd_hist.render(40).c_str());

  // Show a few representative series (sparkline-style).
  std::printf("sample series (first 72 rounds, '.'<0.2 ':'<0.4 '+'<0.6 "
              "'#'<0.8 '@'>=0.8):\n");
  for (std::size_t v = 0; v < std::min<std::size_t>(8, n_vms); ++v) {
    std::printf("  vm%-3zu ", v);
    for (std::size_t r = 0; r < std::min<std::size_t>(72, rounds); ++r) {
      const double x = store.at(v, r).cpu;
      std::putchar(x < 0.2 ? '.' : x < 0.4 ? ':' : x < 0.6 ? '+'
                   : x < 0.8 ? '#' : '@');
    }
    std::printf("\n");
  }

  if (csv_path) {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", csv_path);
      return 1;
    }
    store.save_csv(out);
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "trace_explorer: write to '%s' failed\n",
                   csv_path);
      return 1;
    }
    std::printf("\nwrote %zu x %zu trace to %s\n", n_vms, rounds, csv_path);
  }
  return 0;
}
