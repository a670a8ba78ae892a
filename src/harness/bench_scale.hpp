// Bench-runtime scaling. The paper's full sweep (3 sizes × 3 ratios × 4
// algorithms × 20 repetitions × 1420 rounds) is minutes of CPU time; the
// bench binaries default to a reduced-but-shape-preserving configuration
// and honour two environment variables for full-fidelity runs:
//   GLAP_BENCH_SCALE=full    — paper-size clusters and repetition count
//   GLAP_BENCH_REPS=<n>      — override the repetition count
#pragma once

#include <cstddef>
#include <vector>

#include "harness/experiment.hpp"

namespace glap::harness {

struct BenchScale {
  std::vector<std::size_t> sizes;   ///< cluster sizes to sweep
  std::vector<std::size_t> ratios;  ///< VM:PM ratios to sweep
  std::size_t repetitions;
  sim::Round rounds;
  sim::Round warmup_rounds;
};

/// Reads GLAP_BENCH_SCALE / GLAP_BENCH_REPS and returns the sweep shape.
/// Default: sizes {150}, ratios {2, 3, 4}, 2 repetitions, 160+160 rounds
/// (sized for a single-core CI box). "full": sizes {500, 1000, 2000},
/// 5 repetitions (20 with GLAP_BENCH_REPS=20), 720+700 rounds. An unset
/// or empty variable keeps the default; any other GLAP_BENCH_SCALE value,
/// or a GLAP_BENCH_REPS that is not an integer in [1, 1000], throws
/// std::invalid_argument naming the variable.
[[nodiscard]] BenchScale bench_scale_from_env();

/// Applies the scale's round counts to a config (and refits GLAP phases).
void apply_scale(ExperimentConfig& config, const BenchScale& scale);

}  // namespace glap::harness
