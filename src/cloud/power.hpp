// Power and migration-energy models.
//
// PM power draw is linear in CPU utilization — the standard model for this
// server class, shared with the compared work [10]:
//     P(u) = P_idle + (P_max − P_idle) · u,   u ∈ [0, 1].
// Migration energy overhead follows the paper's Eq. 3 (after Strunk &
// Dargie [2]): both endpoints burn extra CPU for the transfer duration τ,
//     E = ((P_i^lm − P_i^idle) + (P_j^lm − P_j^idle)) · τ,
// where P^lm is the power at the machine's utilization plus a fixed
// migration CPU overhead share.
#pragma once

#include "cloud/specs.hpp"

namespace glap::cloud {

class LinearPowerModel {
 public:
  explicit LinearPowerModel(PowerParams params);

  /// Instantaneous draw at utilization u (clamped to [0,1]), in watts.
  [[nodiscard]] double power_watts(double utilization) const noexcept;

  /// Energy over an interval at constant utilization, in joules.
  [[nodiscard]] double energy_joules(double utilization,
                                     double seconds) const noexcept;

  [[nodiscard]] double idle_watts() const noexcept { return params_.idle_watts; }
  [[nodiscard]] double max_watts() const noexcept { return params_.max_watts; }

 private:
  PowerParams params_;
};

/// Transfer duration: the VM's resident memory over the migration
/// bandwidth shared by the two endpoints (the tighter of the two).
[[nodiscard]] double migration_seconds(double vm_mem_mb, double src_bw_mbps,
                                       double dst_bw_mbps) noexcept;

/// Paper Eq. 3, with the transfer taking 10% of each endpoint's CPU.
[[nodiscard]] double migration_energy_joules(
    const LinearPowerModel& src_model, double src_utilization,
    const LinearPowerModel& dst_model, double dst_utilization,
    double tau_seconds) noexcept;

}  // namespace glap::cloud
