// GRMP — gossip-based aggressive consolidation with a static threshold
// (Wuhib, Yanggratoke, Stadler — JNSM 2015), configured as in the GLAP
// evaluation: static upper threshold 0.8.
//
// Per round a PM gossips with a random neighbor; the pair greedily shifts
// VMs from the less-utilized PM onto the other as long as the receiver's
// CPU stays below the threshold (current demands only —
// GRMP formulates consolidation as bin packing and ignores demand
// variability, which is exactly why it overloads PMs when demand rises).
// A drained PM switches off immediately. An overloaded PM sheds VMs to
// its gossip partner while the partner has headroom below the threshold.
#pragma once

#include "cloud/datacenter.hpp"
#include "overlay/neighbor_provider.hpp"

namespace glap::baselines {

class GrmpProtocol final : public sim::Protocol {
 public:
  GrmpProtocol(cloud::DataCenter& dc,
               sim::Slot<overlay::NeighborProvider> overlay);

  static sim::Slot<GrmpProtocol> install(
      sim::Engine& engine, cloud::DataCenter& dc,
      sim::Slot<overlay::NeighborProvider> overlay);

  void execute(sim::Engine& engine, sim::NodeId self) override;

 private:
  /// Moves VMs sender→recipient while the recipient stays under threshold.
  void pack(sim::Engine& engine, cloud::PmId sender, cloud::PmId recipient);

  /// True when `pm` would stay at or below the threshold after adding `vm`.
  [[nodiscard]] bool accepts(cloud::PmId pm, cloud::VmId vm) const;

  cloud::DataCenter& dc_;
  sim::Slot<overlay::NeighborProvider> overlay_;
};

}  // namespace glap::baselines
