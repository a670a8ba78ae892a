// SLA metric accounting per the paper's Eq. (1)-(2):
//
//   SLAVO  = (1/N) Σ_i  Ts_i / Ta_i      (PM-side: share of active time a
//                                         PM spent at 100% CPU)
//   SLALM  = (1/M) Σ_j  Cd_j / Cr_j      (VM-side: migration degradation —
//                                         Cd is 10% of the VM's CPU use
//                                         during its migrations, Cr its
//                                         total requested CPU)
//   SLAV   = SLAVO × SLALM
//
// The accountant is fed by DataCenter: once per round for time/demand
// accumulation and once per migration for degradation.
#pragma once

#include <cstddef>
#include <vector>

#include "common/assert.hpp"

namespace glap::cloud {

class SlaAccounting {
 public:
  SlaAccounting(std::size_t pm_count, std::size_t vm_count);

  /// Accumulates one round of PM activity.
  void record_pm_round(std::size_t pm, bool active, bool cpu_saturated,
                       double dt_seconds);

  /// Accumulates one round of VM demand (for Cr).
  void record_vm_round(std::size_t vm, double cpu_usage_mips,
                       double dt_seconds);

  /// Accumulates degradation for one live migration of `vm` that ran for
  /// `tau_seconds` while the VM used `cpu_usage_mips`.
  void record_migration(std::size_t vm, double cpu_usage_mips,
                        double tau_seconds);

  [[nodiscard]] double slavo() const;
  [[nodiscard]] double slalm() const;
  [[nodiscard]] double slav() const { return slavo() * slalm(); }

  [[nodiscard]] double pm_saturated_seconds(std::size_t pm) const;
  [[nodiscard]] double pm_active_seconds(std::size_t pm) const;

 private:
  struct PmClock {
    double saturated_s = 0.0;
    double active_s = 0.0;
  };
  struct VmClock {
    double degraded_mips_s = 0.0;
    double requested_mips_s = 0.0;
  };

  std::vector<PmClock> pms_;
  std::vector<VmClock> vms_;
};

}  // namespace glap::cloud
