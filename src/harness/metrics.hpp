// Per-run results sampled by the experiment runner: one RoundSample per
// evaluation round (the paper samples "at the end of each round") plus
// run-level aggregates for Table I and Figs. 6-10.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.hpp"
#include "common/profiler.hpp"
#include "common/stats.hpp"

namespace glap::harness {

struct RoundSample {
  std::uint32_t round = 0;            ///< evaluation-window round index
  std::uint32_t active_pms = 0;       ///< powered-on PMs
  std::uint32_t overloaded_pms = 0;   ///< powered-on PMs over capacity
  std::uint64_t migrations_cum = 0;   ///< cumulative migrations so far
  std::uint32_t migrations_round = 0; ///< migrations within this round
  double migration_energy_j = 0.0;    ///< cumulative Eq.-3 energy
  std::uint32_t active_racks = 0;     ///< racks with a live switch (0 when
                                      ///< topology is disabled)
  std::uint32_t quiescent_pms = 0;    ///< nodes parked by can_quiesce votes
                                      ///< (0 unless glap.quiescence.enabled)

  bool operator==(const RoundSample&) const = default;
};

struct RunResult {
  std::vector<RoundSample> rounds;

  // Evaluation-window totals.
  std::uint64_t total_migrations = 0;
  double migration_energy_j = 0.0;
  double total_energy_j = 0.0;
  double slavo = 0.0;
  double slalm = 0.0;
  double slav = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  std::uint32_t final_active_pms = 0;
  std::uint32_t final_overloaded_pms = 0;
  /// BFD packing of the last round's VM usage (Fig. 6 baseline).
  std::uint32_t final_bfd_bins = 0;
  /// Times the churn oracle re-triggered GLAP's learning phases.
  std::uint32_t relearn_triggers = 0;
  /// Top-of-rack switch energy over the evaluation window (J); 0 when the
  /// topology is disabled.
  double switch_energy_j = 0.0;

  // Network-model totals (DESIGN.md §13; all 0 when network.enabled is
  // off). Counts cover warmup + evaluation — every admitted round-trip.
  std::uint64_t net_sends = 0;
  std::uint64_t net_delivered = 0;           ///< same-round deliveries
  /// Always 0: every admitted exchange lands in its send round. Kept
  /// because benchmark/glap_bench.cpp folds it into its run digest.
  std::uint64_t net_delayed = 0;
  std::uint64_t net_dropped_loss = 0;        ///< random loss drops
  std::uint64_t net_dropped_congestion = 0;  ///< queue-overflow drops

  [[nodiscard]] double mean_active_racks() const {
    RunningStats st;
    for (const auto& s : rounds) st.add(s.active_racks);
    return st.mean();
  }

  /// Mean parked-node count over the evaluation window (quiescence runs).
  [[nodiscard]] double mean_quiescent_pms() const {
    RunningStats st;
    for (const auto& s : rounds) st.add(s.quiescent_pms);
    return st.mean();
  }

  /// Mean per-round Q-table cosine similarity across sampled PM pairs,
  /// one entry per warmup round (filled when track_convergence is set).
  std::vector<double> convergence;

  /// The run's metric registry (counters/gauges/histograms/series), or
  /// null when ObservabilityConfig::metrics_enabled() was false.
  std::shared_ptr<metrics::MetricsRegistry> metrics;

  /// Per-phase engine profile (empty unless ObservabilityConfig::profile).
  /// Call counts are a pure function of (config, seed); wall_ns is
  /// host-dependent.
  std::vector<prof::PhaseProfiler::PhaseTotals> profile;

  // Derived helpers -------------------------------------------------------

  [[nodiscard]] std::vector<double> overloaded_series() const {
    std::vector<double> out;
    out.reserve(rounds.size());
    for (const auto& s : rounds) out.push_back(s.overloaded_pms);
    return out;
  }
  [[nodiscard]] std::vector<double> active_series() const {
    std::vector<double> out;
    out.reserve(rounds.size());
    for (const auto& s : rounds) out.push_back(s.active_pms);
    return out;
  }
  [[nodiscard]] std::vector<double> migrations_per_round_series() const {
    std::vector<double> out;
    out.reserve(rounds.size());
    for (const auto& s : rounds) out.push_back(s.migrations_round);
    return out;
  }

  [[nodiscard]] double mean_overloaded() const {
    RunningStats st;
    for (const auto& s : rounds) st.add(s.overloaded_pms);
    return st.mean();
  }
  [[nodiscard]] double mean_active() const {
    RunningStats st;
    for (const auto& s : rounds) st.add(s.active_pms);
    return st.mean();
  }
  /// Mean per-round fraction of active PMs that are overloaded (Fig. 6).
  [[nodiscard]] double mean_overloaded_fraction() const {
    RunningStats st;
    for (const auto& s : rounds)
      if (s.active_pms > 0)
        st.add(static_cast<double>(s.overloaded_pms) / s.active_pms);
    return st.mean();
  }
};

}  // namespace glap::harness
