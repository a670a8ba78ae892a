// Synthetic Google-Cluster-like workload ensemble.
//
// The real Google cluster traces are not distributed with this repository
// (see DESIGN.md §4). This generator reproduces the statistical properties
// the GLAP evaluation depends on:
//   * VMs use far less than their allocation — heavy-tailed base levels
//     with a CPU mean around 30% of the request;
//   * per-VM time series are partially predictable (stable / diurnal /
//     mean-reverting / bursty / spiky archetypes) so a learner can
//     characterize them;
//   * memory varies much less than CPU;
//   * the ensemble mixes archetypes, so different PMs host different
//     workload patterns (the paper's argument against one global
//     threshold).
// Streams are a pure function of (seed, vm_id): every algorithm in an
// experiment replays identical demands.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "trace/demand_model.hpp"

namespace glap::trace {

/// Archetype mixture weights for the ensemble (normalized internally).
/// Bursty/spiky jobs carry substantial weight: the Google traces' CPU
/// series swing hard, and that variability is what separates the
/// consolidation policies. The base-level distributions are fixed
/// (google_synth.cpp).
struct GoogleSynthConfig {
  double w_stable = 0.15;
  double w_diurnal = 0.25;
  double w_random_walk = 0.25;
  double w_bursty = 0.25;
  double w_spike = 0.10;
};

/// Factory for per-VM demand models. Construct one per experiment with the
/// experiment seed, then call make_model(vm_id) for each VM.
class GoogleSynth {
 public:
  explicit GoogleSynth(GoogleSynthConfig config, std::uint64_t seed);

  /// Builds the deterministic stream for `vm_id`.
  [[nodiscard]] DemandModelPtr make_model(std::uint64_t vm_id) const;

  [[nodiscard]] const GoogleSynthConfig& config() const noexcept {
    return config_;
  }

 private:
  GoogleSynthConfig config_;
  std::uint64_t seed_;
};

}  // namespace glap::trace
