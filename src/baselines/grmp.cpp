#include "baselines/grmp.hpp"

#include "net/network_model.hpp"

namespace glap::baselines {

namespace {
constexpr std::size_t kStateMsgBytes = 16;
}

GrmpProtocol::GrmpProtocol(const GrmpConfig& config, cloud::DataCenter& dc,
                           sim::Engine::ProtocolSlot overlay_slot)
    : config_(config), dc_(dc), overlay_slot_(overlay_slot) {
  GLAP_REQUIRE(config.upper_threshold > 0.0 && config.upper_threshold <= 1.0,
               "grmp threshold out of (0,1]");
}

sim::Engine::ProtocolSlot GrmpProtocol::install(
    sim::Engine& engine, const GrmpConfig& config, cloud::DataCenter& dc,
    sim::Engine::ProtocolSlot overlay_slot) {
  GLAP_REQUIRE(engine.node_count() == dc.pm_count(),
               "engine nodes must map 1:1 onto data-center PMs");
  return engine.add_protocol_pool<GrmpProtocol>([&](sim::NodeId /*i*/) {
    return GrmpProtocol(config, dc, overlay_slot);
  });
}

bool GrmpProtocol::accepts(cloud::PmId pm, cloud::VmId vm) const {
  const Resources projected =
      dc_.current_usage(pm) + dc_.vm_current_usage(vm);
  const Resources util =
      projected.divided_by(dc_.pm(pm).spec().capacity());
  if (util.cpu > config_.upper_threshold) return false;
  if (config_.threshold_both_resources &&
      util.mem > config_.upper_threshold)
    return false;
  // Memory is bounded by physical capacity regardless of the threshold.
  return util.mem <= 1.0;
}

void GrmpProtocol::pack(sim::Engine& engine, cloud::PmId sender,
                        cloud::PmId recipient) {
  const std::size_t cap = dc_.pm(sender).vm_count();
  for (std::size_t attempt = 0; attempt < cap; ++attempt) {
    const auto& vms = dc_.pm(sender).vms();
    if (vms.empty()) break;
    // Greedy: move the largest-CPU VM that the recipient accepts.
    cloud::VmId best = cloud::VmId(-1);
    double best_cpu = -1.0;
    for (cloud::VmId v : vms) {
      if (!accepts(recipient, v)) continue;
      const double cpu = dc_.vm_current_usage(v).cpu;
      if (cpu > best_cpu) {
        best = v;
        best_cpu = cpu;
      }
    }
    if (best == cloud::VmId(-1)) break;
    dc_.migrate(best, recipient);
    engine.network().count_message(static_cast<sim::NodeId>(sender),
                                   static_cast<sim::NodeId>(recipient),
                                   kStateMsgBytes);
  }
}

void GrmpProtocol::execute(sim::Engine& engine, sim::NodeId self) {
  auto& sampler =
      engine.protocol_at<overlay::NeighborProvider>(overlay_slot_, self);
  const auto peer = sampler.sample_active_peer(engine, self);
  if (!peer) return;
  if (net::NetworkModel* net = engine.net_model()) {
    // GRMP rounds are self-contained: a lost or late state exchange just
    // abandons this round's packing attempt.
    if (!net->round_trip(self, *peer, kStateMsgBytes, kStateMsgBytes,
                         net::Channel::kConsolidation)
             .ok())
      return;
  }
  engine.network().count_message(self, *peer, kStateMsgBytes);
  engine.network().count_message(*peer, self, kStateMsgBytes);

  const auto p = static_cast<cloud::PmId>(self);
  const auto q = static_cast<cloud::PmId>(*peer);

  // GRMP's management objective is packing (power minimization); it has no
  // dedicated overload-relief path — an overloaded PM can only hope the
  // regular packing direction eventually drains it, which is the failure
  // mode Fig. 1 of the GLAP paper illustrates. The threshold merely gates
  // what a receiver accepts.
  const double up = dc_.current_utilization(p).sum();
  const double uq = dc_.current_utilization(q).sum();
  const cloud::PmId sender = up <= uq ? p : q;
  const cloud::PmId recipient = up <= uq ? q : p;
  pack(engine, sender, recipient);

  if (dc_.pm(sender).empty()) {
    dc_.set_power(sender, cloud::PmPower::kSleep);
    engine.set_status(static_cast<sim::NodeId>(sender),
                      sim::NodeStatus::kSleeping);
  }
}

}  // namespace glap::baselines
