// Shared plumbing for the two table benches (paper_sweep, extensions): the
// sweep scale from the environment, the algorithm list, the cell configs,
// a common header that records the run configuration, and the table sink.
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

/// A default-config cell of `algorithm` at `pm_count` × `vm_ratio`, with
/// the scale's round counts.
inline harness::ExperimentConfig cell_config(Algorithm algorithm,
                                             std::size_t pm_count,
                                             std::size_t vm_ratio,
                                             const harness::BenchScale& scale) {
  harness::ExperimentConfig config;
  config.algorithm = algorithm;
  config.pm_count = pm_count;
  config.vm_ratio = vm_ratio;
  apply_scale(config, scale);
  return config;
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

/// Prints a table under its title, then `note` (the expected shape, or
/// how to read it) unless empty, and mirrors the table into the report.
inline void emit(harness::BenchReport& report, const std::string& title,
                 const char* name, const ConsoleTable& table,
                 const std::string& note = "") {
  std::printf("--- %s ---\n%s", title.c_str(), table.render().c_str());
  if (!note.empty()) std::printf("\n%s\n", note.c_str());
  std::printf("\n");
  report.add_table(name, table);
}

}  // namespace glap::bench
