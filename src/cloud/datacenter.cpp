#include "cloud/datacenter.hpp"

#include <algorithm>
#include <cmath>

#include "cloud/average_tracker.hpp"
#include "common/metrics.hpp"
#include "common/round_time.hpp"
#include "common/tracing.hpp"

namespace glap::cloud {

namespace {
std::vector<PmSpec> repeat_pm(const PmSpec& spec, std::size_t n) {
  return std::vector<PmSpec>(n, spec);
}
std::vector<VmSpec> repeat_vm(const VmSpec& spec, std::size_t n) {
  return std::vector<VmSpec>(n, spec);
}
}  // namespace

DataCenter::DataCenter(std::size_t pm_count, std::size_t vm_count,
                       DataCenterConfig config)
    : DataCenter(repeat_pm(config.pm_spec, pm_count),
                 repeat_vm(config.vm_spec, vm_count), config) {}

DataCenter::DataCenter(std::vector<PmSpec> pm_specs,
                       std::vector<VmSpec> vm_specs, DataCenterConfig config)
    : config_(config),
      host_of_(vm_specs.size(), static_cast<PmId>(-1)),
      usage_cache_(pm_specs.size()),
      pm_on_(pm_specs.size(), 1),
      vm_demand_(vm_specs.size()),
      vm_usage_(vm_specs.size()),
      vm_avg_(vm_specs.size()),
      vm_avg_count_(vm_specs.size(), 0),
      vm_capacity_(vm_specs.size()),
      vm_wake_ref_(vm_specs.size()),
      active_pms_(pm_specs.size()),
      sla_(std::max<std::size_t>(1, pm_specs.size()),
           std::max<std::size_t>(1, vm_specs.size())) {
  GLAP_REQUIRE(!pm_specs.empty() && !vm_specs.empty(), "empty data center");
  pms_.reserve(pm_specs.size());
  vms_.reserve(vm_specs.size());
  for (std::size_t i = 0; i < pm_specs.size(); ++i)
    pms_.emplace_back(static_cast<PmId>(i), pm_specs[i]);
  for (std::size_t i = 0; i < vm_specs.size(); ++i) {
    vms_.emplace_back(static_cast<VmId>(i), vm_specs[i]);
    vm_capacity_[i] = vm_specs[i].capacity();
  }
}

const Pm& DataCenter::pm(PmId id) const {
  GLAP_REQUIRE(id < pms_.size(), "pm id out of range");
  return pms_[id];
}

const Vm& DataCenter::vm(VmId id) const {
  GLAP_REQUIRE(id < vms_.size(), "vm id out of range");
  return vms_[id];
}

PmId DataCenter::host_of(VmId id) const {
  GLAP_REQUIRE(id < host_of_.size(), "vm id out of range");
  GLAP_REQUIRE(host_of_[id] != static_cast<PmId>(-1), "vm is not placed");
  return host_of_[id];
}

void DataCenter::place(VmId vm_id, PmId pm_id) {
  GLAP_REQUIRE(vm_id < vms_.size(), "vm id out of range");
  GLAP_REQUIRE(pm_id < pms_.size(), "pm id out of range");
  GLAP_REQUIRE(host_of_[vm_id] == static_cast<PmId>(-1),
               "vm already placed; use migrate()");
  GLAP_REQUIRE(pm_on_[pm_id] != 0, "cannot place on a sleeping pm");
  pms_[pm_id].add_vm(vm_id);
  host_of_[vm_id] = pm_id;
  usage_cache_[pm_id] += vm_usage_[vm_id];
  ++placed_vms_;
  vm_wake_ref_[vm_id] = vm_demand_[vm_id];
  if (wake_hook_) wake_hook_(pm_id, trace::ActivityReason::kMigration);
}

void DataCenter::depart(VmId vm_id) {
  GLAP_REQUIRE(vm_id < vms_.size(), "vm id out of range");
  const PmId host = host_of(vm_id);  // throws when not placed
  const bool removed = pms_[host].remove_vm(vm_id);
  GLAP_ASSERT(removed, "placement map out of sync");
  usage_cache_[host] -= vm_usage_[vm_id];
  host_of_[vm_id] = static_cast<PmId>(-1);
  --placed_vms_;
  if (wake_hook_) wake_hook_(host, trace::ActivityReason::kMigration);
}

bool DataCenter::is_placed(VmId vm_id) const {
  GLAP_REQUIRE(vm_id < vms_.size(), "vm id out of range");
  return host_of_[vm_id] != static_cast<PmId>(-1);
}

void DataCenter::place_randomly(Rng& rng) {
  // Random placement that respects *nominal* allocations (a PM never gets
  // more VMs than their requested resources fit), as an admission
  // controller would guarantee.
  std::vector<Resources> allocated(pms_.size());
  for (VmId v = 0; v < vms_.size(); ++v) {
    const Resources vm_alloc = vms_[v].spec().capacity();
    bool placed = false;
    for (std::size_t attempt = 0; attempt < pms_.size() * 4; ++attempt) {
      const auto p = static_cast<PmId>(rng.bounded(pms_.size()));
      if (!(allocated[p] + vm_alloc).fits_within(pms_[p].spec().capacity()))
        continue;
      place(v, p);
      allocated[p] += vm_alloc;
      placed = true;
      break;
    }
    if (!placed) {
      // Dense corner case: fall back to the first PM that fits.
      for (PmId p = 0; p < pms_.size() && !placed; ++p) {
        if (!(allocated[p] + vm_alloc).fits_within(pms_[p].spec().capacity()))
          continue;
        place(v, p);
        allocated[p] += vm_alloc;
        placed = true;
      }
    }
    if (!placed) {
      // Arbitrary-order placement fragmented a dense fleet (mixed VM
      // sizes near nominal capacity). Restart with best-fit decreasing —
      // what a real admission controller computes when a naive assignment
      // fails.
      for (VmId undo = 0; undo <= v; ++undo)
        if (is_placed(undo)) depart(undo);
      std::fill(allocated.begin(), allocated.end(), Resources{});

      std::vector<VmId> order(vms_.size());
      for (VmId i = 0; i < vms_.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](VmId a, VmId b) {
        return vms_[a].spec().cpu_mips > vms_[b].spec().cpu_mips;
      });
      for (VmId vm : order) {
        const Resources alloc = vms_[vm].spec().capacity();
        PmId best = static_cast<PmId>(-1);
        double best_spare = 0.0;
        for (PmId p = 0; p < pms_.size(); ++p) {
          const Resources cap = pms_[p].spec().capacity();
          if (!(allocated[p] + alloc).fits_within(cap)) continue;
          const double spare = cap.cpu - allocated[p].cpu;
          if (best == static_cast<PmId>(-1) || spare < best_spare) {
            best = p;
            best_spare = spare;
          }
        }
        GLAP_REQUIRE(best != static_cast<PmId>(-1),
                     "data center cannot fit all VM allocations");
        place(vm, best);
        allocated[best] += alloc;
      }
      return;
    }
  }
}

std::vector<PmId> DataCenter::placement_snapshot() const { return host_of_; }

Resources DataCenter::current_usage(PmId id) const {
  GLAP_REQUIRE(id < pms_.size(), "pm id out of range");
  return usage_cache_[id];
}

Resources DataCenter::current_utilization(PmId id) const {
  return current_usage(id).divided_by(pm(id).spec().capacity());
}

Resources DataCenter::average_utilization(PmId id) const {
  const Pm& host = pm(id);
  Resources sum;
  for (VmId v : host.vms()) sum += vm_avg_[v].scaled_by(vm_capacity_[v]);
  return sum.divided_by(host.spec().capacity());
}

bool DataCenter::overloaded(PmId id) const {
  const Resources u = current_utilization(id);
  return u.cpu >= 1.0 || u.mem >= 1.0;
}

bool DataCenter::cpu_saturated(PmId id) const {
  return current_utilization(id).cpu >= 1.0;
}

bool DataCenter::can_host(PmId pm_id, VmId vm_id) const {
  GLAP_REQUIRE(pm_id < pms_.size(), "pm id out of range");
  GLAP_REQUIRE(vm_id < vms_.size(), "vm id out of range");
  if (pm_on_[pm_id] == 0) return false;
  const Resources projected = usage_cache_[pm_id] + vm_usage_[vm_id];
  return projected.fits_within(pms_[pm_id].spec().capacity());
}

std::size_t DataCenter::overloaded_pm_count() const {
  std::size_t count = 0;
  for (PmId p = 0; p < pms_.size(); ++p)
    if (pm_on_[p] != 0 && overloaded(p)) ++count;
  return count;
}

MigrationRecord DataCenter::migrate(VmId vm_id, PmId to) {
  GLAP_REQUIRE(vm_id < vms_.size(), "vm id out of range");
  GLAP_REQUIRE(to < pms_.size(), "pm id out of range");
  const PmId from = host_of(vm_id);
  GLAP_REQUIRE(from != to, "migration to the current host");
  GLAP_REQUIRE(pm_on_[to] != 0, "migration target is sleeping");

  const Resources moving_usage = vm_usage_[vm_id];
  double tau = migration_seconds(moving_usage.mem,
                                 pms_[from].spec().migration_bw_mbps,
                                 pms_[to].spec().migration_bw_mbps);
  // Under the network model the pre-copy stream shares the fabric with
  // gossip: queueing behind the current backlog lengthens τ (and thus the
  // energy integral below).
  if (migration_network_) tau += migration_network_(from, to, moving_usage.mem);
  const double src_util = std::min(current_utilization(from).cpu, 1.0);
  const double dst_util = std::min(current_utilization(to).cpu, 1.0);
  const double energy = ::glap::cloud::migration_energy_joules(
      pms_[from].power_model(), src_util, pms_[to].power_model(), dst_util,
      tau);

  const bool removed = pms_[from].remove_vm(vm_id);
  GLAP_ASSERT(removed, "placement map out of sync");
  pms_[to].add_vm(vm_id);
  host_of_[vm_id] = to;
  usage_cache_[from] -= moving_usage;
  usage_cache_[to] += moving_usage;

  MigrationRecord record{vm_id, from, to, round_, tau, energy};
  if (trace_ != nullptr)
    trace_->emit(trace::Migration{vm_id, from, to, moving_usage.cpu, energy});
  if (ctr_migrations_ != nullptr) {
    ctr_migrations_->inc();
    hist_tau_->observe(tau);
    hist_energy_->observe(energy);
  }
  sla_.record_migration(record.vm, moving_usage.cpu, record.tau_seconds);
  migration_energy_j_ += record.energy_joules;
  ++total_migrations_;
  ++migrations_this_round_;
  if (wake_hook_) {
    wake_hook_(from, trace::ActivityReason::kMigration);
    wake_hook_(to, trace::ActivityReason::kMigration);
  }
  return record;
}

void DataCenter::set_power(PmId id, PmPower power) {
  const Pm& target = pm(id);
  const std::uint8_t on = power == PmPower::kSleep ? 0 : 1;
  if (pm_on_[id] == on) return;
  if (power == PmPower::kSleep)
    GLAP_REQUIRE(target.empty(), "cannot sleep a pm that still hosts vms");
  pm_on_[id] = on;
  if (power == PmPower::kSleep)
    --active_pms_;
  else
    ++active_pms_;
  if (trace_ != nullptr)
    trace_->emit(trace::Power{id, on != 0});
  if (ctr_power_transitions_ != nullptr) ctr_power_transitions_->inc();
  if (wake_hook_) wake_hook_(id, trace::ActivityReason::kStatus);
}

void DataCenter::set_wake_hook(WakeHook hook, double demand_epsilon) {
  GLAP_REQUIRE(demand_epsilon >= 0.0, "demand epsilon must be non-negative");
  wake_hook_ = std::move(hook);
  demand_epsilon_ = demand_epsilon;
  // Re-anchor the references so the first post-install drift is measured
  // from the demand the caller saw when it installed the hook.
  if (wake_hook_) vm_wake_ref_ = vm_demand_;
}

void DataCenter::set_telemetry(metrics::MetricsRegistry* registry,
                               trace::TraceLog* trace) {
  trace_ = trace;
  if (registry != nullptr) {
    ctr_migrations_ = registry->counter("dc.migrations");
    ctr_power_transitions_ = registry->counter("dc.power_transitions");
    hist_tau_ = registry->histogram("dc.migration_tau_s");
    hist_energy_ = registry->histogram("dc.migration_energy_j");
  } else {
    ctr_migrations_ = nullptr;
    ctr_power_transitions_ = nullptr;
    hist_tau_ = nullptr;
    hist_energy_ = nullptr;
  }
}

void DataCenter::observe_demands(std::span<const Resources> fractions) {
  GLAP_REQUIRE(fractions.size() == vms_.size(),
               "need one demand sample per vm");
  // Rebuild the per-PM aggregate cache from scratch (O(VMs)); departed
  // VMs neither observe demand nor contribute usage. The fold walks the
  // flat demand/average/usage arrays in VmId order — one linear pass.
  std::fill(usage_cache_.begin(), usage_cache_.end(), Resources{});
  const bool hooked = static_cast<bool>(wake_hook_);
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    const PmId host = host_of_[v];
    if (host == static_cast<PmId>(-1)) continue;
    const Resources& f = fractions[v];
    GLAP_REQUIRE(f.cpu >= 0.0 && f.cpu <= 1.0 && f.mem >= 0.0 && f.mem <= 1.0,
                 "demand fraction out of [0,1]");
    vm_demand_[v] = f;
    vm_avg_[v] = fold_average(vm_avg_[v], vm_avg_count_[v], f);
    ++vm_avg_count_[v];
    vm_usage_[v] = f.scaled_by(vm_capacity_[v]);
    usage_cache_[host] += vm_usage_[v];
    if (hooked && (std::abs(f.cpu - vm_wake_ref_[v].cpu) > demand_epsilon_ ||
                   std::abs(f.mem - vm_wake_ref_[v].mem) > demand_epsilon_)) {
      vm_wake_ref_[v] = f;
      wake_hook_(host, trace::ActivityReason::kDemand);
    }
  }
  if (hooked) {
    // Overloaded PMs must always run their shed logic next round, even
    // when every hosted VM stayed inside its epsilon band.
    for (PmId p = 0; p < pms_.size(); ++p)
      if (pm_on_[p] != 0 && overloaded(p))
        wake_hook_(p, trace::ActivityReason::kDemand);
  }
}

void DataCenter::end_round() {
  const double dt = kRoundSeconds;
  for (PmId p = 0; p < pms_.size(); ++p) {
    const bool active = pm_on_[p] != 0;
    sla_.record_pm_round(p, active, active && cpu_saturated(p), dt);
    if (active) {
      const double u = std::min(current_utilization(p).cpu, 1.0);
      total_energy_j_ += pms_[p].power_model().energy_joules(u, dt);
    }
  }
  for (VmId v = 0; v < vms_.size(); ++v)
    if (host_of_[v] != static_cast<PmId>(-1))
      sla_.record_vm_round(v, vm_usage_[v].cpu, dt);
  migrations_this_round_ = 0;
  ++round_;
}

}  // namespace glap::cloud
