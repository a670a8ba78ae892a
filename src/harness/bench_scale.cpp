#include "harness/bench_scale.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/cli_number.hpp"

namespace glap::harness {

BenchScale bench_scale_from_env() {
  BenchScale scale;
  const char* scale_env = std::getenv("GLAP_BENCH_SCALE");
  const std::string_view env = scale_env != nullptr ? scale_env : "";
  if (!env.empty() && env != "full")
    throw std::invalid_argument(
        "GLAP_BENCH_SCALE wants 'full' or nothing, got '" + std::string(env) +
        "'");
  if (env == "full") {
    scale.sizes = {500, 1000, 2000};
    scale.ratios = {2, 3, 4};
    scale.repetitions = 5;
    scale.rounds = 720;
    scale.warmup_rounds = 700;
  } else {
    scale.sizes = {150};
    scale.ratios = {2, 3, 4};
    scale.repetitions = 2;
    scale.rounds = 160;
    scale.warmup_rounds = 160;
  }
  const char* reps = std::getenv("GLAP_BENCH_REPS");
  if (reps != nullptr && *reps != '\0')
    scale.repetitions = cli::parse_uint("GLAP_BENCH_REPS", reps, 1, 1000);
  return scale;
}

void apply_scale(ExperimentConfig& config, const BenchScale& scale) {
  config.rounds = scale.rounds;
  config.warmup_rounds = scale.warmup_rounds;
  config.fit_glap_phases_to_warmup();
}

}  // namespace glap::harness
