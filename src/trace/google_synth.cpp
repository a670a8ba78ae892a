#include "trace/google_synth.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/round_time.hpp"
#include "trace/demand_models.hpp"

namespace glap::trace {

namespace {

// Base CPU level ~ Beta(kCpuBetaA, kCpuBetaB) scaled into [kCpuLo, kCpuHi].
constexpr double kCpuBetaA = 2.0;
constexpr double kCpuBetaB = 4.0;
constexpr double kCpuLo = 0.05;
constexpr double kCpuHi = 0.95;

// Base memory level ~ Beta(kMemBetaA, kMemBetaB) scaled into
// [kMemLo, kMemHi]. Memory runs lower and steadier than CPU (as in the
// Google traces), so CPU is the binding resource during packing — the
// regime the paper studies.
constexpr double kMemBetaA = 2.5;
constexpr double kMemBetaB = 3.5;
constexpr double kMemLo = 0.10;
constexpr double kMemHi = 0.60;

static_assert(kCpuLo < kCpuHi && kMemLo < kMemHi, "level ranges empty");

}  // namespace

GoogleSynth::GoogleSynth(GoogleSynthConfig config, std::uint64_t seed)
    : config_(config), seed_(hash_combine(seed, hash_tag("google-synth"))) {
  const double total = config.w_stable + config.w_diurnal +
                       config.w_random_walk + config.w_bursty +
                       config.w_spike;
  GLAP_REQUIRE(total > 0.0, "mixture weights must not all be zero");
}

DemandModelPtr GoogleSynth::make_model(std::uint64_t vm_id) const {
  Rng rng(hash_combine(seed_, vm_id));

  const auto& c = config_;
  const double total =
      c.w_stable + c.w_diurnal + c.w_random_walk + c.w_bursty + c.w_spike;
  const double pick = rng.uniform() * total;

  const double cpu_base =
      kCpuLo + (kCpuHi - kCpuLo) * rng.beta(kCpuBetaA, kCpuBetaB);
  const double mem_base =
      kMemLo + (kMemHi - kMemLo) * rng.beta(kMemBetaA, kMemBetaB);

  double acc = c.w_stable;
  if (pick < acc)
    return std::make_unique<StableModel>(cpu_base, mem_base,
                                         /*jitter=*/0.03, rng.split("m"));

  acc += c.w_diurnal;
  if (pick < acc) {
    const double amplitude = rng.uniform(0.15, 0.35);
    // Keep the wave inside [0,1] around the base.
    const double base = std::clamp(cpu_base, amplitude + 0.02,
                                   1.0 - amplitude - 0.02);
    return std::make_unique<DiurnalModel>(base, amplitude, kRoundsPerDay,
                                          rng.uniform(), mem_base,
                                          rng.split("m"));
  }

  acc += c.w_random_walk;
  if (pick < acc) {
    const double sigma = rng.uniform(0.03, 0.1);
    return std::make_unique<RandomWalkModel>(cpu_base, sigma, mem_base,
                                             rng.split("m"));
  }

  acc += c.w_bursty;
  if (pick < acc) {
    const double low = std::min(cpu_base, 0.35);
    const double high = rng.uniform(0.7, 1.0);
    // Expected dwell ~ 1/p rounds: bursts every ~12-50 rounds lasting
    // ~8-30 rounds (tens of minutes, as in the Google traces).
    const double p_up = rng.uniform(0.02, 0.08);
    const double p_down = rng.uniform(0.03, 0.12);
    return std::make_unique<BurstyModel>(low, high, p_up, p_down, mem_base,
                                         rng.split("m"));
  }

  const double base = std::min(cpu_base, 0.3);
  const double spike_level = rng.uniform(0.8, 1.0);
  const double spike_prob = rng.uniform(0.01, 0.04);
  const auto spike_len = static_cast<std::uint32_t>(rng.range(3, 12));
  return std::make_unique<SpikeModel>(base, spike_level, spike_prob, spike_len,
                                      mem_base, rng.split("m"));
}

}  // namespace glap::trace
