// PABFD — Power-Aware Best Fit Decreasing with adaptive MAD threshold
// (Beloglazov & Buyya — CCPE 2012), the centralized comparator in the
// GLAP evaluation.
//
// A central manager (hosted on node 0, which therefore never sleeps —
// the paper's point about centralized designs) observes every PM each
// round and:
//   1. records per-PM CPU utilization history and derives a per-PM upper
//      threshold Tu = 1 − s·MAD(history) (Median Absolute Deviation, the
//      estimator the GLAP paper names);
//   2. relieves overloaded PMs (u > Tu) by evicting VMs chosen by the
//      Minimum Migration Time policy (smallest resident memory) until the
//      PM returns below Tu;
//   3. re-places evicted VMs with power-aware best-fit-decreasing: VMs
//      sorted by decreasing CPU demand, each assigned to the feasible
//      active host with the least power increase (waking a sleeping host
//      when none fits);
//   4. evacuates underloaded hosts (all VMs placeable elsewhere) and
//      switches them off.
// The continuous re-shuffling this produces is why PABFD shows the
// highest migration counts in Figs. 8-10.
#pragma once

#include <deque>

#include "cloud/datacenter.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace glap::baselines {

/// Adaptive-threshold estimator (Beloglazov & Buyya compare several ways
/// of "capturing dynamic workload of VMs to determine an appropriate
/// upper threshold" — the GLAP paper names MAD, IQR and Robust Local
/// Regression).
enum class ThresholdEstimator : std::uint8_t {
  kMad,  ///< Tu = 1 − s·MAD(history)            (the GLAP paper's choice)
  kIqr,  ///< Tu = 1 − s·IQR(history)
  kLr,   ///< local-regression forecast: Tu set so the OLS-extrapolated
         ///< next utilization stays below saturation (s scales the margin)
};

[[nodiscard]] constexpr const char* to_string(ThresholdEstimator e) noexcept {
  switch (e) {
    case ThresholdEstimator::kMad:
      return "MAD";
    case ThresholdEstimator::kIqr:
      return "IQR";
    case ThresholdEstimator::kLr:
      return "LR";
  }
  return "?";
}

struct PabfdConfig {
  ThresholdEstimator estimator = ThresholdEstimator::kMad;
  double mad_safety = 2.5;          ///< s in Tu = 1 − s·MAD
  std::size_t history_window = 30;  ///< rounds of utilization history kept
  std::size_t min_history = 10;     ///< MAD needs this many samples
  double default_upper = 0.8;       ///< Tu before history accumulates
  double min_upper = 0.4;           ///< clamp for Tu (very noisy hosts)
  bool allow_wake = true;           ///< manager may wake sleeping hosts
  /// Manager reconsolidation period in rounds. Beloglazov's controller
  /// acts on a multi-minute period; 3 rounds = 6 simulated minutes
  /// (utilization history still records every round).
  std::uint32_t interval_rounds = 3;
};

class PabfdManager final : public sim::Protocol {
 public:
  PabfdManager(const PabfdConfig& config, cloud::DataCenter& dc);

  /// Installs the manager logic; it executes on node `manager_node` only
  /// (the other instances are inert stand-ins so the slot is total).
  static sim::Engine::ProtocolSlot install(sim::Engine& engine,
                                           const PabfdConfig& config,
                                           cloud::DataCenter& dc,
                                           sim::NodeId manager_node = 0);

  /// The manager node scans and mutates the whole data center; the inert
  /// stand-in instances do nothing.
  void execute(sim::Engine& engine, sim::NodeId self) override;

  /// Median absolute deviation (exposed for tests).
  [[nodiscard]] static double mad(std::vector<double> samples);

  /// Inter-quartile range (linear-interpolated quartiles).
  [[nodiscard]] static double iqr(std::vector<double> samples);

  /// OLS forecast of the next sample (local regression over the window);
  /// exposed for tests.
  [[nodiscard]] static double lr_forecast(const std::vector<double>& samples);

  /// Current adaptive upper threshold of `pm`.
  [[nodiscard]] double upper_threshold(cloud::PmId pm) const;

 private:
  void record_history();
  void relieve_overloads(sim::Engine& engine);
  void evacuate_underloaded(sim::Engine& engine);

  /// Feasible target minimizing power increase; nullopt when none.
  [[nodiscard]] std::optional<cloud::PmId> best_target(
      cloud::VmId vm, cloud::PmId exclude,
      const std::vector<bool>& barred) const;

  /// Wakes any sleeping PM and returns it; nullopt when none sleeps.
  std::optional<cloud::PmId> wake_one(sim::Engine& engine);

  PabfdConfig config_;
  cloud::DataCenter& dc_;
  sim::NodeId manager_node_ = 0;
  bool is_manager_ = false;
  std::uint32_t cycles_since_action_ = 0;
  std::vector<std::deque<double>> history_;  // per-PM CPU utilization

  friend struct PabfdInstaller;
};

}  // namespace glap::baselines
