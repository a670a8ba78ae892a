#include "baselines/grmp.hpp"

#include "net/network_model.hpp"

namespace glap::baselines {

namespace {
constexpr std::size_t kStateMsgBytes = 16;
/// The static upper threshold of the GLAP evaluation. GRMP's management
/// objective is CPU-utilization-centric, so the threshold gates CPU only,
/// leaving memory bounded by physical capacity alone — which reproduces
/// the aggressive below-baseline packing (and the resulting overload
/// rate) the GLAP evaluation reports for GRMP.
constexpr double kUpperThreshold = 0.8;
static_assert(kUpperThreshold > 0.0 && kUpperThreshold <= 1.0,
              "grmp threshold out of (0,1]");
}  // namespace

GrmpProtocol::GrmpProtocol(cloud::DataCenter& dc,
                           sim::Slot<overlay::NeighborProvider> overlay)
    : dc_(dc), overlay_(overlay) {}

sim::Slot<GrmpProtocol> GrmpProtocol::install(
    sim::Engine& engine, cloud::DataCenter& dc,
    sim::Slot<overlay::NeighborProvider> overlay) {
  GLAP_REQUIRE(engine.node_count() == dc.pm_count(),
               "engine nodes must map 1:1 onto data-center PMs");
  return engine.add_protocol_pool<GrmpProtocol>(
      [&](sim::NodeId /*i*/, sim::Slot<GrmpProtocol> /*self*/) {
        return GrmpProtocol(dc, overlay);
      });
}

bool GrmpProtocol::accepts(cloud::PmId pm, cloud::VmId vm) const {
  const Resources projected =
      dc_.current_usage(pm) + dc_.vm_current_usage(vm);
  const Resources util =
      projected.divided_by(dc_.pm(pm).spec().capacity());
  if (util.cpu > kUpperThreshold) return false;
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
  const auto peer =
      engine.protocol_at(overlay_, self).sample_active_peer(engine, self);
  if (!peer) return;
  if (net::NetworkModel* net = engine.net_model()) {
    // GRMP rounds are self-contained: a lost state exchange just
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
