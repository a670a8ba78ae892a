#include "baselines/pabfd.hpp"

#include <algorithm>

namespace glap::baselines {

namespace {
constexpr std::size_t kMonitorMsgBytes = 16;
}

PabfdManager::PabfdManager(const PabfdConfig& config, cloud::DataCenter& dc)
    : config_(config), dc_(dc), history_(dc.pm_count()) {
  GLAP_REQUIRE(config.mad_safety > 0.0, "mad_safety must be positive");
  GLAP_REQUIRE(config.history_window >= config.min_history,
               "history_window smaller than min_history");
  GLAP_REQUIRE(config.min_history >= 2, "min_history too small for MAD");
}

struct PabfdInstaller {
  static void mark_manager(PabfdManager& m, sim::NodeId node) {
    m.manager_node_ = node;
    m.is_manager_ = true;
  }
};

sim::Engine::ProtocolSlot PabfdManager::install(sim::Engine& engine,
                                                const PabfdConfig& config,
                                                cloud::DataCenter& dc,
                                                sim::NodeId manager_node) {
  GLAP_REQUIRE(engine.node_count() == dc.pm_count(),
               "engine nodes must map 1:1 onto data-center PMs");
  GLAP_REQUIRE(manager_node < engine.node_count(), "manager node out of range");
  const auto slot = engine.add_protocol_pool<PabfdManager>(
      [&](sim::NodeId /*i*/) { return PabfdManager(config, dc); });
  PabfdInstaller::mark_manager(
      engine.protocol_at<PabfdManager>(slot, manager_node), manager_node);
  return slot;
}

double PabfdManager::mad(std::vector<double> samples) {
  GLAP_REQUIRE(!samples.empty(), "MAD of an empty sample");
  auto median_of = [](std::vector<double>& v) {
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end());
    double m = v[mid];
    if (v.size() % 2 == 0) {
      const double lower =
          *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
      m = 0.5 * (m + lower);
    }
    return m;
  };
  const double med = median_of(samples);
  for (double& x : samples) x = std::abs(x - med);
  return median_of(samples);
}

double PabfdManager::iqr(std::vector<double> samples) {
  GLAP_REQUIRE(!samples.empty(), "IQR of an empty sample");
  std::sort(samples.begin(), samples.end());
  auto quantile = [&](double q) {
    const double rank = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
  };
  return quantile(0.75) - quantile(0.25);
}

double PabfdManager::lr_forecast(const std::vector<double>& samples) {
  GLAP_REQUIRE(samples.size() >= 2, "LR forecast needs two samples");
  // OLS of y over t in [0, n); forecast at t = n.
  const auto n = static_cast<double>(samples.size());
  double sum_t = 0.0, sum_y = 0.0, sum_ty = 0.0, sum_tt = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto t = static_cast<double>(i);
    sum_t += t;
    sum_y += samples[i];
    sum_ty += t * samples[i];
    sum_tt += t * t;
  }
  const double denom = n * sum_tt - sum_t * sum_t;
  if (denom == 0.0) return samples.back();
  const double slope = (n * sum_ty - sum_t * sum_y) / denom;
  const double intercept = (sum_y - slope * sum_t) / n;
  return intercept + slope * n;
}

double PabfdManager::upper_threshold(cloud::PmId pm) const {
  GLAP_REQUIRE(pm < history_.size(), "pm id out of range");
  const auto& h = history_[pm];
  if (h.size() < config_.min_history) return config_.default_upper;
  const std::vector<double> samples(h.begin(), h.end());
  double tu = config_.default_upper;
  switch (config_.estimator) {
    case ThresholdEstimator::kMad:
      tu = 1.0 - config_.mad_safety * mad(samples);
      break;
    case ThresholdEstimator::kIqr:
      tu = 1.0 - config_.mad_safety * iqr(samples);
      break;
    case ThresholdEstimator::kLr: {
      // Declare "overloaded" when the projected next utilization (scaled
      // by the safety factor) would saturate: equivalent to a threshold
      // of current + (1 − s·forecast) headroom, expressed as Tu.
      const double forecast = lr_forecast(samples);
      tu = 1.0 - config_.mad_safety * std::max(0.0, forecast - samples.back());
      break;
    }
  }
  return std::clamp(tu, config_.min_upper, 1.0);
}

void PabfdManager::record_history() {
  for (cloud::PmId p = 0; p < dc_.pm_count(); ++p) {
    if (!dc_.pm_on(p)) continue;
    auto& h = history_[p];
    h.push_back(std::min(dc_.current_utilization(p).cpu, 1.0));
    while (h.size() > config_.history_window) h.pop_front();
  }
}

std::optional<cloud::PmId> PabfdManager::best_target(
    cloud::VmId vm, cloud::PmId exclude,
    const std::vector<bool>& barred) const {
  std::optional<cloud::PmId> best;
  double best_power_delta = 0.0;
  double best_util = 0.0;
  const Resources vm_usage = dc_.vm_current_usage(vm);
  for (cloud::PmId p = 0; p < dc_.pm_count(); ++p) {
    if (p == exclude || barred[p] || !dc_.pm_on(p)) continue;
    if (!dc_.can_host(p, vm)) continue;
    const double u_before = std::min(dc_.current_utilization(p).cpu, 1.0);
    const double u_after = std::min(
        (dc_.current_usage(p).cpu + vm_usage.cpu) / dc_.pm(p).spec().cpu_mips,
        1.0);
    // Placement checks capacity fit only (CloudSim's isSuitableForVm);
    // the adaptive threshold governs overload *detection*, not placement —
    // which is why PABFD packs tight and keeps churning (Figs. 8-9).
    const auto& model = dc_.pm(p).power_model();
    const double delta = model.power_watts(u_after) -
                         model.power_watts(u_before);
    // Least power increase; homogeneous hosts tie on the linear model, so
    // the emptiest host breaks ties — evicted (volatile) VMs land where
    // the next burst is least likely to trigger another eviction.
    if (!best || delta < best_power_delta ||
        (delta == best_power_delta && u_before < best_util)) {
      best = p;
      best_power_delta = delta;
      best_util = u_before;
    }
  }
  return best;
}

std::optional<cloud::PmId> PabfdManager::wake_one(sim::Engine& engine) {
  if (!config_.allow_wake) return std::nullopt;
  for (cloud::PmId p = 0; p < dc_.pm_count(); ++p) {
    if (dc_.pm_on(p)) continue;
    dc_.set_power(p, cloud::PmPower::kOn);
    engine.set_status(static_cast<sim::NodeId>(p), sim::NodeStatus::kActive);
    return p;
  }
  return std::nullopt;
}

void PabfdManager::relieve_overloads(sim::Engine& engine) {
  // Gather evictions from every overloaded host (Minimum Migration Time:
  // smallest resident memory first).
  std::vector<std::pair<cloud::VmId, cloud::PmId>> to_place;
  for (cloud::PmId p = 0; p < dc_.pm_count(); ++p) {
    if (!dc_.pm_on(p)) continue;
    const double tu = upper_threshold(p);
    double cpu_usage = dc_.current_usage(p).cpu;
    const double cap = dc_.pm(p).spec().cpu_mips;
    if (cpu_usage / cap <= tu) continue;
    auto vms = dc_.pm(p).vms();
    std::sort(vms.begin(), vms.end(), [&](cloud::VmId a, cloud::VmId b) {
      return dc_.vm_current_usage(a).mem < dc_.vm_current_usage(b).mem;
    });
    for (cloud::VmId v : vms) {
      if (cpu_usage / cap <= tu) break;
      to_place.emplace_back(v, p);
      cpu_usage -= dc_.vm_current_usage(v).cpu;
    }
  }

  // Power-aware BFD placement: decreasing CPU demand.
  std::sort(to_place.begin(), to_place.end(),
            [&](const auto& a, const auto& b) {
              return dc_.vm_current_usage(a.first).cpu >
                     dc_.vm_current_usage(b.first).cpu;
            });
  std::vector<bool> barred(dc_.pm_count(), false);
  for (const auto& [vm, source] : to_place) {
    auto target = best_target(vm, source, barred);
    if (!target) {
      if (const auto fresh = wake_one(engine))
        target = dc_.can_host(*fresh, vm) ? fresh : std::nullopt;
    }
    if (!target) continue;  // nowhere to go; host stays overloaded
    dc_.migrate(vm, *target);
    engine.network().count_message(static_cast<sim::NodeId>(source),
                                   static_cast<sim::NodeId>(*target),
                                   kMonitorMsgBytes);
  }
}

void PabfdManager::evacuate_underloaded(sim::Engine& engine) {
  // Consider hosts in increasing CPU utilization; try to fully evacuate
  // each. Hosts that already received evacuated VMs this pass are barred
  // from being evacuated themselves (they were just chosen as targets).
  std::vector<cloud::PmId> order;
  for (cloud::PmId p = 0; p < dc_.pm_count(); ++p) {
    // The manager's own host must stay on.
    if (!dc_.pm_on(p) || p == static_cast<cloud::PmId>(manager_node_))
      continue;
    if (dc_.pm(p).empty()) {
      dc_.set_power(p, cloud::PmPower::kSleep);
      engine.set_status(static_cast<sim::NodeId>(p),
                        sim::NodeStatus::kSleeping);
      continue;
    }
    order.push_back(p);
  }
  std::sort(order.begin(), order.end(), [&](cloud::PmId a, cloud::PmId b) {
    return dc_.current_utilization(a).cpu < dc_.current_utilization(b).cpu;
  });

  std::vector<bool> barred(dc_.pm_count(), false);
  // Hosts are visited in increasing utilization; once several in a row
  // cannot be evacuated, denser ones will not be either — stop scanning.
  std::size_t consecutive_failures = 0;
  constexpr std::size_t kMaxConsecutiveFailures = 5;
  for (cloud::PmId p : order) {
    if (consecutive_failures >= kMaxConsecutiveFailures) break;
    if (barred[p]) continue;
    const double tu = upper_threshold(p);
    if (dc_.current_utilization(p).cpu > tu) continue;  // overloaded: skip

    // Dry-run: all VMs must find targets before any migration happens.
    std::vector<double> spare_cpu(dc_.pm_count());
    std::vector<double> spare_mem(dc_.pm_count());
    for (cloud::PmId t = 0; t < dc_.pm_count(); ++t) {
      // Evacuation targets keep threshold headroom — a switch-off that
      // pushes its receivers straight past Tu would be undone (and paid
      // for again) at the very next controller cycle.
      spare_cpu[t] = dc_.pm(t).spec().cpu_mips * upper_threshold(t) -
                     dc_.current_usage(t).cpu;
      spare_mem[t] = dc_.pm(t).spec().mem_mb - dc_.current_usage(t).mem;
    }
    auto vms = dc_.pm(p).vms();
    std::sort(vms.begin(), vms.end(), [&](cloud::VmId a, cloud::VmId b) {
      return dc_.vm_current_usage(a).cpu > dc_.vm_current_usage(b).cpu;
    });
    std::vector<std::pair<cloud::VmId, cloud::PmId>> plan;
    bool feasible = true;
    for (cloud::VmId v : vms) {
      const Resources usage = dc_.vm_current_usage(v);
      std::optional<cloud::PmId> target;
      double best_spare = 0.0;
      for (cloud::PmId t = 0; t < dc_.pm_count(); ++t) {
        if (t == p || barred[t] || !dc_.pm_on(t)) continue;
        if (usage.cpu > spare_cpu[t] || usage.mem > spare_mem[t]) continue;
        // Best fit: tightest remaining CPU.
        if (!target || spare_cpu[t] < best_spare) {
          target = t;
          best_spare = spare_cpu[t];
        }
      }
      if (!target) {
        feasible = false;
        break;
      }
      plan.emplace_back(v, *target);
      spare_cpu[*target] -= usage.cpu;
      spare_mem[*target] -= usage.mem;
    }
    if (!feasible) {
      ++consecutive_failures;
      continue;
    }
    consecutive_failures = 0;

    for (const auto& [v, t] : plan) {
      dc_.migrate(v, t);
      barred[t] = true;
      engine.network().count_message(static_cast<sim::NodeId>(p),
                                     static_cast<sim::NodeId>(t),
                                     kMonitorMsgBytes);
    }
    dc_.set_power(p, cloud::PmPower::kSleep);
    engine.set_status(static_cast<sim::NodeId>(p),
                      sim::NodeStatus::kSleeping);
    barred[p] = true;
  }
}

void PabfdManager::execute(sim::Engine& engine, sim::NodeId self) {
  if (!is_manager_ || self != manager_node_) return;
  // The manager polls every active PM (monitoring traffic).
  for (cloud::PmId p = 0; p < dc_.pm_count(); ++p)
    if (dc_.pm_on(p))
      engine.network().count_message(static_cast<sim::NodeId>(p), self,
                                     kMonitorMsgBytes);
  record_history();
  // Reconsolidation runs on the controller period, not every sample.
  const std::uint32_t interval = std::max<std::uint32_t>(
      1, config_.interval_rounds);
  if (++cycles_since_action_ < interval) return;
  cycles_since_action_ = 0;
  relieve_overloads(engine);
  evacuate_underloaded(engine);
}

}  // namespace glap::baselines
