#include "cloud/power.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace glap::cloud {

namespace {
/// Fraction of CPU the live-migration transfer consumes on each endpoint.
constexpr double kMigrationCpuOverhead = 0.10;
}  // namespace

LinearPowerModel::LinearPowerModel(PowerParams params) : params_(params) {
  GLAP_REQUIRE(params.idle_watts >= 0.0, "idle power must be non-negative");
  GLAP_REQUIRE(params.max_watts >= params.idle_watts,
               "max power below idle power");
}

double LinearPowerModel::power_watts(double utilization) const noexcept {
  const double u = std::clamp(utilization, 0.0, 1.0);
  return params_.idle_watts + (params_.max_watts - params_.idle_watts) * u;
}

double LinearPowerModel::energy_joules(double utilization,
                                       double seconds) const noexcept {
  return power_watts(utilization) * seconds;
}

double migration_seconds(double vm_mem_mb, double src_bw_mbps,
                         double dst_bw_mbps) noexcept {
  const double bw = std::min(src_bw_mbps, dst_bw_mbps);
  GLAP_DEBUG_ASSERT(bw > 0.0, "migration bandwidth must be positive");
  GLAP_DEBUG_ASSERT(vm_mem_mb >= 0.0, "negative VM memory");
  return vm_mem_mb / bw;
}

double migration_energy_joules(const LinearPowerModel& src_model,
                               double src_utilization,
                               const LinearPowerModel& dst_model,
                               double dst_utilization,
                               double tau_seconds) noexcept {
  const double src_lm =
      src_model.power_watts(src_utilization + kMigrationCpuOverhead);
  const double dst_lm =
      dst_model.power_watts(dst_utilization + kMigrationCpuOverhead);
  const double delta =
      (src_lm - src_model.idle_watts()) + (dst_lm - dst_model.idle_watts());
  return delta * tau_seconds;
}

}  // namespace glap::cloud
