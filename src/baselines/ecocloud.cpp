#include "baselines/ecocloud.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "net/network_model.hpp"

namespace glap::baselines {

namespace {
constexpr std::size_t kProbeMsgBytes = 16;
}

EcoCloudProtocol::EcoCloudProtocol(cloud::DataCenter& dc, Rng rng)
    : dc_(dc), rng_(rng) {}

sim::Slot<EcoCloudProtocol> EcoCloudProtocol::install(sim::Engine& engine,
                                                      cloud::DataCenter& dc,
                                                      std::uint64_t seed) {
  GLAP_REQUIRE(engine.node_count() == dc.pm_count(),
               "engine nodes must map 1:1 onto data-center PMs");
  Rng master(hash_combine(seed, hash_tag("ecocloud")));
  return engine.add_protocol_pool<EcoCloudProtocol>(
      [&](sim::NodeId i, sim::Slot<EcoCloudProtocol> /*self*/) {
        return EcoCloudProtocol(dc, master.split(i));
      });
}

double EcoCloudProtocol::acceptance_probability(double utilization) noexcept {
  const double t2 = kUpperThreshold;
  if (utilization < 0.0 || utilization >= t2) return 0.0;
  const double x = utilization / t2;
  const double p = kAcceptShape;
  // f(x) = x^p (1 − x), normalized so the peak value is 1.
  const double x_peak = p / (p + 1.0);
  const double peak = std::pow(x_peak, p) * (1.0 - x_peak);
  return std::pow(x, p) * (1.0 - x) / peak;
}

double EcoCloudProtocol::underload_migration_probability(
    double utilization) noexcept {
  if (utilization < kLowerThreshold)
    // Grows linearly as the server empties: scale at u=0, zero at T1…
    return kMigrateProbScale * (1.0 - utilization / kLowerThreshold);
  if (utilization < kUpperThreshold) {
    // …with a small residual drain in the (T1, T2) band, quadratically
    // vanishing toward T2 (see kMidBandScale).
    const double slack = 1.0 - utilization / kUpperThreshold;
    return kMidBandScale * slack * slack;
  }
  return 0.0;
}

std::optional<cloud::VmId> EcoCloudProtocol::pick_vm(cloud::PmId pm) const {
  const auto& vms = dc_.pm(pm).vms();
  if (vms.empty()) return std::nullopt;
  cloud::VmId best = vms.front();
  double best_mem = dc_.vm_current_usage(best).mem;
  for (cloud::VmId v : vms) {
    const double mem = dc_.vm_current_usage(v).mem;
    if (mem < best_mem) {
      best = v;
      best_mem = mem;
    }
  }
  return best;
}

std::optional<cloud::PmId> EcoCloudProtocol::probe_place(
    sim::Engine& engine, cloud::PmId source, cloud::VmId vm) {
  const std::size_t n = dc_.pm_count();
  for (std::size_t probe = 0; probe < kProbeCount; ++probe) {
    const auto candidate = static_cast<cloud::PmId>(rng_.bounded(n));
    if (candidate == source) continue;
    if (!dc_.pm_on(candidate)) continue;
    engine.network().count_message(static_cast<sim::NodeId>(source),
                                   static_cast<sim::NodeId>(candidate),
                                   kProbeMsgBytes);
    // Probe semantics under the network model: a lost probe/reply skips
    // this candidate (the next draw tries another).
    if (net::NetworkModel* net = engine.net_model();
        net != nullptr &&
        !net->round_trip(static_cast<sim::NodeId>(source),
                         static_cast<sim::NodeId>(candidate), kProbeMsgBytes,
                         kProbeMsgBytes, net::Channel::kProbe)
             .ok())
      continue;
    const double u = dc_.current_utilization(candidate).max_component();
    if (!rng_.bernoulli(acceptance_probability(u))) continue;
    if (!dc_.can_host(candidate, vm)) continue;
    return candidate;
  }
  return std::nullopt;
}

bool EcoCloudProtocol::try_place(sim::Engine& engine, cloud::PmId source,
                                 cloud::VmId vm) {
  const auto target = probe_place(engine, source, vm);
  if (!target) return false;
  dc_.migrate(vm, *target);
  return true;
}

bool EcoCloudProtocol::plan_evacuation(
    sim::Engine& engine, sim::NodeId self, cloud::PmId source,
    std::vector<std::pair<cloud::VmId, cloud::PmId>>& plan) {
  const std::size_t n = dc_.pm_count();

  // Plan: find an accepting target for every VM, reserving planned load.
  // Keyed deterministically (std::map, PmId order): the plan is only ever
  // *looked up* per candidate today, but an unordered map here is one
  // refactor away from iteration in bucket order — the exact hazard the
  // glap-lint unordered-iteration rule rejects.
  std::map<cloud::PmId, Resources> reserved;
  for (cloud::VmId vm : dc_.pm(source).vms()) {
    const Resources usage = dc_.vm_current_usage(vm);
    bool placed = false;
    for (std::size_t probe = 0; probe < kProbeCount && !placed; ++probe) {
      const auto candidate = static_cast<cloud::PmId>(rng_.bounded(n));
      if (candidate == source) continue;
      if (!dc_.pm_on(candidate)) continue;
      engine.network().count_message(self, static_cast<sim::NodeId>(candidate),
                                     kProbeMsgBytes);
      if (net::NetworkModel* net = engine.net_model();
          net != nullptr &&
          !net->round_trip(self, static_cast<sim::NodeId>(candidate),
                           kProbeMsgBytes, kProbeMsgBytes,
                           net::Channel::kProbe)
               .ok())
        continue;
      const Resources pm_cap = dc_.pm(candidate).spec().capacity();
      const Resources planned =
          dc_.current_usage(candidate) + reserved[candidate];
      const double u = planned.divided_by(pm_cap).max_component();
      if (!rng_.bernoulli(acceptance_probability(u))) continue;
      if (!(planned + usage).fits_within(pm_cap)) continue;
      reserved[candidate] += usage;
      plan.emplace_back(vm, candidate);
      placed = true;
    }
    if (!placed) return false;  // incomplete plan — nothing migrates
  }
  return true;
}

bool EcoCloudProtocol::try_evacuate(sim::Engine& engine, sim::NodeId self,
                                    cloud::PmId source) {
  std::vector<std::pair<cloud::VmId, cloud::PmId>> plan;
  if (!plan_evacuation(engine, self, source, plan))
    return false;
  for (const auto& [vm, target] : plan) dc_.migrate(vm, target);
  dc_.set_power(source, cloud::PmPower::kSleep);
  engine.set_status(self, sim::NodeStatus::kSleeping);
  return true;
}

void EcoCloudProtocol::execute(sim::Engine& engine, sim::NodeId self) {
  const auto p = static_cast<cloud::PmId>(self);
  const Resources util = dc_.current_utilization(p);
  const double u = util.max_component();

  if (u > kUpperThreshold) {
    // Above T2: shed one VM via a Bernoulli trial whose probability ramps
    // with the excess — gradual relief, not a hard rule (servers hovering
    // at T2 would otherwise shed every round and churn forever).
    const double excess = (u - kUpperThreshold) / (1.0 - kUpperThreshold);
    if (rng_.bernoulli(std::min(1.0, 0.1 * excess)))
      if (const auto vm = pick_vm(p)) try_place(engine, p, *vm);
    return;
  }

  if (cooldown_ > 0) {
    --cooldown_;
    return;
  }
  if (dc_.pm(p).empty()) {
    dc_.set_power(p, cloud::PmPower::kSleep);
    engine.set_status(self, sim::NodeStatus::kSleeping);
    return;
  }
  if (rng_.bernoulli(underload_migration_probability(u))) {
    if (!try_evacuate(engine, self, p)) cooldown_ = kEvacuationCooldown;
  }
}

}  // namespace glap::baselines
