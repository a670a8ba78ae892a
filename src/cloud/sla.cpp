#include "cloud/sla.hpp"

namespace glap::cloud {

namespace {
/// Fraction of the VM's CPU usage counted as degraded during migration.
constexpr double kMigrationDegradation = 0.10;
static_assert(kMigrationDegradation >= 0.0 && kMigrationDegradation <= 1.0,
              "migration degradation fraction out of range");
}  // namespace

SlaAccounting::SlaAccounting(std::size_t pm_count, std::size_t vm_count)
    : pms_(pm_count), vms_(vm_count) {
  GLAP_REQUIRE(pm_count > 0 && vm_count > 0, "empty SLA accounting");
}

void SlaAccounting::record_pm_round(std::size_t pm, bool active,
                                    bool cpu_saturated, double dt_seconds) {
  GLAP_REQUIRE(pm < pms_.size(), "pm index out of range");
  GLAP_REQUIRE(dt_seconds >= 0.0, "negative round duration");
  if (!active) return;
  pms_[pm].active_s += dt_seconds;
  if (cpu_saturated) pms_[pm].saturated_s += dt_seconds;
}

void SlaAccounting::record_vm_round(std::size_t vm, double cpu_usage_mips,
                                    double dt_seconds) {
  GLAP_REQUIRE(vm < vms_.size(), "vm index out of range");
  GLAP_REQUIRE(cpu_usage_mips >= 0.0 && dt_seconds >= 0.0,
               "negative VM accounting inputs");
  vms_[vm].requested_mips_s += cpu_usage_mips * dt_seconds;
}

void SlaAccounting::record_migration(std::size_t vm, double cpu_usage_mips,
                                     double tau_seconds) {
  GLAP_REQUIRE(vm < vms_.size(), "vm index out of range");
  GLAP_REQUIRE(cpu_usage_mips >= 0.0 && tau_seconds >= 0.0,
               "negative migration accounting inputs");
  vms_[vm].degraded_mips_s +=
      kMigrationDegradation * cpu_usage_mips * tau_seconds;
}

double SlaAccounting::slavo() const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const auto& pm : pms_) {
    if (pm.active_s <= 0.0) continue;
    sum += pm.saturated_s / pm.active_s;
    ++counted;
  }
  return counted ? sum / static_cast<double>(counted) : 0.0;
}

double SlaAccounting::slalm() const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const auto& vm : vms_) {
    if (vm.requested_mips_s <= 0.0) continue;
    sum += vm.degraded_mips_s / vm.requested_mips_s;
    ++counted;
  }
  return counted ? sum / static_cast<double>(counted) : 0.0;
}

double SlaAccounting::pm_saturated_seconds(std::size_t pm) const {
  GLAP_REQUIRE(pm < pms_.size(), "pm index out of range");
  return pms_[pm].saturated_s;
}

double SlaAccounting::pm_active_seconds(std::size_t pm) const {
  GLAP_REQUIRE(pm < pms_.size(), "pm index out of range");
  return pms_[pm].active_s;
}

}  // namespace glap::cloud
