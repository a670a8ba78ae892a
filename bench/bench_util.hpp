// Shared plumbing for the figure/table reproduction benches: the sweep
// scale from the environment, the algorithm list, and a common header
// that records the run configuration.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "harness/bench_scale.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"

namespace glap::bench {

using harness::Algorithm;

/// The sweep shape from GLAP_BENCH_SCALE / GLAP_BENCH_REPS; a malformed
/// variable exits with status 2 and a message naming it, before any run.
inline harness::BenchScale scale_from_env() {
  try {
    return harness::bench_scale_from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

inline const std::vector<Algorithm>& all_algorithms() {
  static const std::vector<Algorithm> algos{
      Algorithm::kGlap, Algorithm::kEcoCloud, Algorithm::kGrmp,
      Algorithm::kPabfd};
  return algos;
}

inline void print_bench_header(const char* title,
                               const harness::BenchScale& scale) {
  std::printf("=== %s ===\n", title);
  std::printf("scale: sizes={");
  for (std::size_t i = 0; i < scale.sizes.size(); ++i)
    std::printf("%s%zu", i ? "," : "", scale.sizes[i]);
  std::printf("} ratios={");
  for (std::size_t i = 0; i < scale.ratios.size(); ++i)
    std::printf("%s%zu", i ? "," : "", scale.ratios[i]);
  std::printf("} reps=%zu rounds=%u warmup=%u", scale.repetitions,
              scale.rounds, scale.warmup_rounds);
  std::printf("  (set GLAP_BENCH_SCALE=full for paper-size clusters)\n\n");
}

inline std::string cell_label(const harness::ExperimentConfig& config) {
  return std::to_string(config.pm_count) + "-" +
         std::to_string(config.vm_ratio);
}

}  // namespace glap::bench
