// Concrete per-VM demand stream models.
//
// Each model drives the CPU series with a distinct workload archetype
// observed in the Google cluster traces (steady services, diurnal
// front-ends, mean-reverting batch noise, on/off bursty jobs, rare
// spikes) and pairs it with a steadier memory series (memory in the
// Google traces varies far less than CPU). All randomness comes from the
// Rng passed at construction, so streams are reproducible.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "trace/demand_model.hpp"

namespace glap::trace {

/// Mean-reverting Ornstein-Uhlenbeck component used by several models:
///   x' = x + theta * (mu - x) + sigma * N(0,1), clamped to [0, 1].
class OuProcess {
 public:
  OuProcess(double mean, double theta, double sigma, double initial)
      : mean_(mean), theta_(theta), sigma_(sigma), x_(initial) {}

  double step(Rng& rng) noexcept {
    x_ += theta_ * (mean_ - x_) + sigma_ * rng.normal();
    if (x_ < 0.0) x_ = 0.0;
    if (x_ > 1.0) x_ = 1.0;
    return x_;
  }

  void recenter(double mean) noexcept { mean_ = mean; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double value() const noexcept { return x_; }

 private:
  double mean_;
  double theta_;
  double sigma_;
  double x_;
};

/// Shared memory-series behaviour: slow OU walk around a base level.
class MemorySeries {
 public:
  MemorySeries(double base, double sigma, Rng& rng)
      : ou_(base, 0.05, sigma, base + 0.02 * rng.normal()) {}

  double step(Rng& rng) noexcept { return ou_.step(rng); }
  [[nodiscard]] double mean() const noexcept { return ou_.mean(); }

 private:
  OuProcess ou_;
};

/// Steady service: CPU stays near its base with small gaussian jitter.
class StableModel final : public DemandModel {
 public:
  StableModel(double cpu_base, double mem_base, double jitter, Rng rng);
  Resources next() override;
  Resources long_run_mean() const override;

 private:
  Rng rng_;
  double cpu_base_;
  double jitter_;
  MemorySeries mem_;
};

/// Diurnal front-end: sinusoid with one period per simulated day plus OU
/// noise. GoogleSynth passes kRoundsPerDay (common/round_time.hpp) as
/// `period_rounds`.
class DiurnalModel final : public DemandModel {
 public:
  DiurnalModel(double cpu_base, double amplitude, std::uint32_t period_rounds,
               double phase_fraction, double mem_base, Rng rng);
  Resources next() override;
  Resources long_run_mean() const override;

 private:
  Rng rng_;
  double cpu_base_;
  double amplitude_;
  std::uint32_t period_;
  double phase_;
  double jitter_;
  std::uint32_t t_ = 0;
  MemorySeries mem_;
};

/// Mean-reverting batch noise: pure OU walk around the base level.
class RandomWalkModel final : public DemandModel {
 public:
  RandomWalkModel(double cpu_base, double sigma, double mem_base, Rng rng);
  Resources next() override;
  Resources long_run_mean() const override;

 private:
  Rng rng_;
  OuProcess cpu_;
  MemorySeries mem_;
};

/// On/off bursty job: a two-state Markov regime (low/high CPU level) with
/// geometric dwell times; OU noise inside each regime.
class BurstyModel final : public DemandModel {
 public:
  BurstyModel(double low_level, double high_level, double p_low_to_high,
              double p_high_to_low, double mem_base, Rng rng);
  Resources next() override;
  Resources long_run_mean() const override;

  [[nodiscard]] bool in_burst() const noexcept { return high_; }

 private:
  Rng rng_;
  double low_level_;
  double high_level_;
  double p_up_;
  double p_down_;
  bool high_ = false;
  OuProcess cpu_;
  MemorySeries mem_;
};

/// Mostly idle with rare short spikes to a high level.
class SpikeModel final : public DemandModel {
 public:
  SpikeModel(double base, double spike_level, double spike_prob,
             std::uint32_t spike_len, double mem_base, Rng rng);
  Resources next() override;
  Resources long_run_mean() const override;

 private:
  Rng rng_;
  double base_;
  double spike_level_;
  double spike_prob_;
  std::uint32_t spike_len_;
  std::uint32_t remaining_spike_ = 0;
  MemorySeries mem_;
};

}  // namespace glap::trace
