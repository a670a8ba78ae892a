// Public entry point for the GLAP stack: wires the three components of
// Fig. 2 (Cyclon membership, Gossip Learning, Gossip Consolidation) onto a
// simulation engine driving a data center.
#pragma once

#include "cloud/datacenter.hpp"
#include "core/config.hpp"
#include "core/consolidation.hpp"
#include "core/gossip_learning.hpp"
#include "overlay/cyclon.hpp"

namespace glap::core {

struct GlapSlots {
  sim::Slot<overlay::NeighborProvider> overlay;
  sim::Slot<GossipLearningProtocol> learning;
  sim::Slot<GlapConsolidationProtocol> consolidation;
};

/// Installs GossipLearning + GlapConsolidation over an already-installed
/// peer-sampling overlay (any NeighborProvider slot — Cyclon, Newscast, or
/// a static graph), enabling overlay ablations. Consolidation activates at
/// config.consolidation_start_round. Pass a RackTopology (outliving the
/// engine) to enable the rack-aware variant (config.rack_affinity).
[[nodiscard]] inline GlapSlots install_glap_on(
    sim::Engine& engine, cloud::DataCenter& dc, const GlapConfig& config,
    sim::Slot<overlay::NeighborProvider> overlay, std::uint64_t seed,
    const cloud::RackTopology* topology = nullptr) {
  const auto learning =
      GossipLearningProtocol::install(engine, config, dc, overlay, seed);
  const auto consolidation = GlapConsolidationProtocol::install(
      engine, config, dc, {overlay, learning}, seed, topology);
  return {overlay, learning, consolidation};
}

/// The paper's stack: Cyclon membership under install_glap_on (one
/// instance of each component per node).
[[nodiscard]] inline GlapSlots install_glap(
    sim::Engine& engine, cloud::DataCenter& dc, const GlapConfig& config,
    std::uint64_t seed, const cloud::RackTopology* topology = nullptr) {
  return install_glap_on(engine, dc, config,
                         overlay::CyclonProtocol::install(engine, seed), seed,
                         topology);
}

}  // namespace glap::core
