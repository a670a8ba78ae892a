// The data-center substrate: owns every PM and VM, the placement map, and
// all the accounting the evaluation metrics read (migrations, energy, SLA).
//
// Round protocol (driven by the experiment harness):
//   1. observe_demands(fracs)  — push this round's per-VM demand samples;
//   2. consolidation protocols run and call migrate()/set_power();
//   3. end_round()             — accumulate time-based metrics.
//
// Consolidation algorithms only mutate the data center through migrate()
// and set_power(), so every placement invariant is enforced in one place.
//
// Hot node state is struct-of-arrays: per-VM demand fractions, running
// averages, and precomputed absolute usage, plus the per-PM power bitmap,
// live in flat vectors indexed by VmId/PmId. The Vm/Pm objects carry only
// identity and hardware description, so the per-round demand fold and the
// overload/power scans at 100k PMs walk contiguous memory.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cloud/migration.hpp"
#include "cloud/pm.hpp"
#include "cloud/sla.hpp"
#include "cloud/vm.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/trace_schema.hpp"

namespace glap::metrics {
class MetricsRegistry;
class Counter;
class OrderedHistogram;
}  // namespace glap::metrics
namespace glap::trace {
class TraceLog;
}

namespace glap::cloud {

struct DataCenterConfig {
  /// Specs used by the homogeneous constructor, and the reference PM
  /// class for the BFD oracle in heterogeneous fleets.
  PmSpec pm_spec = hp_proliant_ml110_g5();
  VmSpec vm_spec = ec2_micro();
};

class DataCenter {
 public:
  /// Homogeneous fleet: every PM is config.pm_spec, every VM
  /// config.vm_spec (the paper's evaluation setting).
  DataCenter(std::size_t pm_count, std::size_t vm_count,
             DataCenterConfig config);

  /// Heterogeneous fleet: one spec per PM and per VM.
  DataCenter(std::vector<PmSpec> pm_specs, std::vector<VmSpec> vm_specs,
             DataCenterConfig config);

  // ------------------------------------------------------------ placement

  /// Places VM `vm` on PM `pm` during initial setup (no migration cost).
  void place(VmId vm, PmId pm);

  /// Random initial placement. The same seed reproduces the same
  /// placement, which the paper requires to compare algorithms fairly.
  void place_randomly(Rng& rng);

  /// Removes a placed VM from its host (churn departure). The VM keeps
  /// its identity and demand-average history and may be re-placed later
  /// via place().
  void depart(VmId vm);

  [[nodiscard]] bool is_placed(VmId vm) const;
  [[nodiscard]] std::size_t placed_vm_count() const noexcept {
    return placed_vms_;
  }

  /// Returns the current placement (vm -> pm) snapshot (departed VMs map
  /// to PmId(-1)).
  [[nodiscard]] std::vector<PmId> placement_snapshot() const;

  // ------------------------------------------------------------- topology

  [[nodiscard]] std::size_t pm_count() const noexcept { return pms_.size(); }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }

  [[nodiscard]] const Pm& pm(PmId id) const;
  [[nodiscard]] const Vm& vm(VmId id) const;
  [[nodiscard]] PmId host_of(VmId id) const;

  [[nodiscard]] const DataCenterConfig& config() const noexcept {
    return config_;
  }

  // ------------------------------------------------- node state (SoA pools)

  /// True when the PM is powered on (flat bitmap; the Pm object itself
  /// carries no power state).
  [[nodiscard]] bool pm_on(PmId id) const {
    GLAP_REQUIRE(id < pm_on_.size(), "pm id out of range");
    return pm_on_[id] != 0;
  }

  /// Current demand as fractions of the VM's own allocation.
  [[nodiscard]] Resources vm_demand_fraction(VmId id) const {
    GLAP_REQUIRE(id < vm_demand_.size(), "vm id out of range");
    return vm_demand_[id];
  }
  /// Running-average demand as fractions of the VM allocation (the
  /// paper's {c, v} piggyback tuple, folded per observe_demands call).
  [[nodiscard]] Resources vm_average_fraction(VmId id) const {
    GLAP_REQUIRE(id < vm_avg_.size(), "vm id out of range");
    return vm_avg_[id];
  }
  /// Current absolute usage (MIPS, MB); precomputed at observation time.
  [[nodiscard]] Resources vm_current_usage(VmId id) const {
    GLAP_REQUIRE(id < vm_usage_.size(), "vm id out of range");
    return vm_usage_[id];
  }
  /// Average absolute usage (MIPS, MB).
  [[nodiscard]] Resources vm_average_usage(VmId id) const {
    GLAP_REQUIRE(id < vm_avg_.size(), "vm id out of range");
    return vm_avg_[id].scaled_by(vm_capacity_[id]);
  }
  [[nodiscard]] std::uint64_t vm_observation_count(VmId id) const {
    GLAP_REQUIRE(id < vm_avg_count_.size(), "vm id out of range");
    return vm_avg_count_[id];
  }

  // ---------------------------------------------------------- utilization

  /// Aggregate *current* usage of a PM in absolute units (MIPS, MB).
  [[nodiscard]] Resources current_usage(PmId id) const;
  /// Aggregate current usage as a fraction of PM capacity (may exceed 1
  /// when the PM is oversubscribed — that is what overload means).
  [[nodiscard]] Resources current_utilization(PmId id) const;
  /// Same using the VMs' running-average demands (GLAP's state input).
  [[nodiscard]] Resources average_utilization(PmId id) const;

  /// A PM is overloaded when aggregate current demand reaches capacity on
  /// any resource (CPU at 100% is the SLA-relevant case).
  [[nodiscard]] bool overloaded(PmId id) const;
  [[nodiscard]] bool cpu_saturated(PmId id) const;

  /// True when `pm` can host `vm`'s *current* usage within capacity.
  [[nodiscard]] bool can_host(PmId pm, VmId vm) const;

  /// Number of PMs that are powered on.
  [[nodiscard]] std::size_t active_pm_count() const noexcept {
    return active_pms_;
  }
  /// Number of powered-on PMs currently overloaded.
  [[nodiscard]] std::size_t overloaded_pm_count() const;

  // ------------------------------------------------------------ mutation

  /// Live-migrates `vm` to `to`. Validates that the source is not the
  /// destination and that `to` is powered on, computes τ and migration
  /// energy, and updates SLA degradation. Capacity is deliberately NOT
  /// enforced here — policies differ in how strictly they check (that is
  /// part of what the paper compares); use can_host() in the policy.
  MigrationRecord migrate(VmId vm, PmId to);

  /// Powers a PM on/off. Sleeping requires the PM to be empty.
  void set_power(PmId id, PmPower power);

  // ------------------------------------------------------- quiescence hook

  /// Wake hook carrying the trace schema's activity reason, the same type
  /// Engine::wake takes (sim::WakeReason aliases it).
  using WakeHook = std::function<void(PmId, trace::ActivityReason)>;

  /// Installs the wake hook the harness bridges to Engine::wake(). The
  /// hook fires kMigration on migrate()/place()/depart() for both
  /// endpoints, kStatus on set_power() transitions, and kDemand during
  /// observe_demands() for every PM hosting a VM whose demand fraction
  /// drifted more than `demand_epsilon` (either resource) from its
  /// last-notified reference, plus every overloaded PM. Reference
  /// fractions advance only when the hook fires, so the notification
  /// sequence is a pure function of the demand stream and placement
  /// history. Pass a null hook to detach.
  void set_wake_hook(WakeHook hook, double demand_epsilon);

  /// Extra migration latency charged by the network model (DESIGN.md
  /// §13.5): called from migrate() as hook(from, to, mem_mb) and the
  /// returned seconds are added to τ before the energy integral. The
  /// harness installs it when `network.migration_contention` is on; a
  /// null hook (the default) keeps the dedicated-bandwidth τ of §5.
  using MigrationNetworkHook = std::function<double(PmId, PmId, double)>;
  void set_migration_network(MigrationNetworkHook hook) {
    migration_network_ = std::move(hook);
  }

  /// Attaches observability sinks (neither owned; either may be null).
  /// Resolves and caches the DataCenter's instruments — dc.migrations,
  /// dc.power_transitions, dc.migration_tau_s, dc.migration_energy_j —
  /// so the hot paths pay one null check when observability is off.
  /// Call from the driver thread, before the engine runs.
  void set_telemetry(metrics::MetricsRegistry* registry,
                     trace::TraceLog* trace);

  // ------------------------------------------------------- round protocol

  /// Pushes this round's demand fractions (one entry per VM, indexed by
  /// VmId) and updates every *placed* VM's running average; departed VMs'
  /// samples are ignored (their workload does not exist right now).
  void observe_demands(std::span<const Resources> fractions);

  /// Closes the round: SLA time accounting and PM energy integration.
  void end_round();

  [[nodiscard]] std::uint32_t round() const noexcept { return round_; }

  // -------------------------------------------------------------- metrics

  [[nodiscard]] std::uint64_t total_migrations() const noexcept {
    return total_migrations_;
  }
  /// Total migration-overhead energy so far (J), per paper Eq. 3.
  [[nodiscard]] double migration_energy_joules() const noexcept {
    return migration_energy_j_;
  }
  /// Total PM energy so far (J), from the linear power model.
  [[nodiscard]] double total_energy_joules() const noexcept {
    return total_energy_j_;
  }
  [[nodiscard]] const SlaAccounting& sla() const noexcept { return sla_; }

  /// Migrations that completed during the current (not yet ended) round.
  [[nodiscard]] std::uint64_t migrations_this_round() const noexcept {
    return migrations_this_round_;
  }

 private:
  DataCenterConfig config_;
  std::vector<Pm> pms_;
  std::vector<Vm> vms_;
  std::vector<PmId> host_of_;
  std::size_t placed_vms_ = 0;
  std::vector<Resources> usage_cache_;  // per-PM aggregate current usage
  // Struct-of-arrays node state (hot paths scan these linearly).
  std::vector<std::uint8_t> pm_on_;      // power bitmap, 1 = on
  std::vector<Resources> vm_demand_;     // current fraction of allocation
  std::vector<Resources> vm_usage_;      // absolute usage = demand × capacity
  std::vector<Resources> vm_avg_;        // running-average fraction
  std::vector<std::uint64_t> vm_avg_count_;
  std::vector<Resources> vm_capacity_;   // flat copy of spec().capacity()
  std::vector<Resources> vm_wake_ref_;   // last hook-notified fraction
  WakeHook wake_hook_;
  MigrationNetworkHook migration_network_;
  double demand_epsilon_ = 0.0;
  std::size_t active_pms_;
  // Observability (see set_telemetry). Raw pointers into an externally
  // owned MetricsRegistry; null means disabled.
  trace::TraceLog* trace_ = nullptr;
  metrics::Counter* ctr_migrations_ = nullptr;
  metrics::Counter* ctr_power_transitions_ = nullptr;
  metrics::OrderedHistogram* hist_tau_ = nullptr;
  metrics::OrderedHistogram* hist_energy_ = nullptr;
  std::uint64_t total_migrations_ = 0;
  std::uint64_t migrations_this_round_ = 0;
  double migration_energy_j_ = 0.0;
  double total_energy_j_ = 0.0;
  SlaAccounting sla_;
  std::uint32_t round_ = 0;
};

}  // namespace glap::cloud
