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
};

class PabfdManager final : public sim::Protocol {
 public:
  static constexpr sim::NodeId kManagerNode = 0;     ///< hosts the manager
  static constexpr double kSafety = 2.5;             ///< s in Tu = 1 − s·MAD
  static constexpr std::size_t kHistoryWindow = 30;  ///< rounds of history
  static constexpr double kDefaultUpper = 0.8;       ///< Tu before history
  static constexpr double kMinUpper = 0.4;  ///< clamp for Tu (noisy hosts)
  /// Samples of history a PM needs before its Tu leaves kDefaultUpper.
  static constexpr std::size_t kMinHistory = 10;
  /// Manager reconsolidation period in rounds. Beloglazov's controller
  /// acts on a multi-minute period; 3 rounds = 6 simulated minutes
  /// (utilization history still records every round).
  static constexpr std::uint32_t kIntervalRounds = 3;
  static_assert(kSafety > 0.0, "safety factor must be positive");
  static_assert(2 <= kMinHistory && kMinHistory <= kHistoryWindow,
                "need 2 <= kMinHistory <= kHistoryWindow");
  static_assert(0.0 < kMinUpper && kMinUpper <= kDefaultUpper &&
                    kDefaultUpper <= 1.0,
                "need 0 < kMinUpper <= kDefaultUpper <= 1");
  static_assert(kIntervalRounds >= 1, "the manager must act periodically");

  /// The instance on `node`. Only the one on kManagerNode acts and keeps
  /// a utilization history.
  PabfdManager(const PabfdConfig& config, cloud::DataCenter& dc,
               sim::NodeId node);

  /// Installs the manager logic; it executes on kManagerNode only (the
  /// other instances are inert stand-ins so the slot is total).
  static sim::Slot<PabfdManager> install(sim::Engine& engine,
                                         const PabfdConfig& config,
                                         cloud::DataCenter& dc);

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

  /// Current adaptive upper threshold of `pm` (manager instance only).
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
  std::uint32_t cycles_since_action_ = 0;
  // Per-PM CPU utilization; empty on the stand-ins.
  std::vector<std::deque<double>> history_;
};

}  // namespace glap::baselines
