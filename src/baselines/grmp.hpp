// GRMP — gossip-based aggressive consolidation with a static threshold
// (Wuhib, Yanggratoke, Stadler — JNSM 2015), configured as in the GLAP
// evaluation: static upper threshold 0.8.
//
// Per round a PM gossips with a random neighbor; the pair greedily shifts
// VMs from the less-utilized PM onto the other as long as the receiver
// stays below the threshold on every resource (current demands only —
// GRMP formulates consolidation as bin packing and ignores demand
// variability, which is exactly why it overloads PMs when demand rises).
// A drained PM switches off immediately. An overloaded PM sheds VMs to
// its gossip partner while the partner has headroom below the threshold.
#pragma once

#include "cloud/datacenter.hpp"
#include "overlay/neighbor_provider.hpp"

namespace glap::baselines {

struct GrmpConfig {
  double upper_threshold = 0.8;
  /// GRMP's management objective is CPU-utilization-centric; by default
  /// the threshold gates CPU only, leaving memory unguarded — which
  /// reproduces the aggressive below-baseline packing (and the resulting
  /// overload rate) the GLAP evaluation reports for GRMP. Set true to
  /// gate both resources (ablation).
  bool threshold_both_resources = false;
};

class GrmpProtocol final : public sim::Protocol {
 public:
  GrmpProtocol(const GrmpConfig& config, cloud::DataCenter& dc,
               sim::Engine::ProtocolSlot overlay_slot);

  static sim::Engine::ProtocolSlot install(
      sim::Engine& engine, const GrmpConfig& config, cloud::DataCenter& dc,
      sim::Engine::ProtocolSlot overlay_slot);

  void execute(sim::Engine& engine, sim::NodeId self) override;

 private:
  /// Moves VMs sender→recipient while the recipient stays under threshold.
  void pack(sim::Engine& engine, cloud::PmId sender, cloud::PmId recipient);

  /// True when `pm` would stay at or below the threshold after adding `vm`.
  [[nodiscard]] bool accepts(cloud::PmId pm, cloud::VmId vm) const;

  GrmpConfig config_;
  cloud::DataCenter& dc_;
  sim::Engine::ProtocolSlot overlay_slot_;
};

}  // namespace glap::baselines
