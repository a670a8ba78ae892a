// Common interface for peer-sampling overlays. Consolidation protocols
// (GLAP, GRMP, EcoCloud) only need "give me a random live neighbor", so
// they program against this interface and work over either the dynamic
// Cyclon overlay or the static random graph used in tests.
#pragma once

#include <optional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace glap::overlay {

class NeighborProvider : public sim::Protocol {
 public:
  /// Returns a uniformly random *active* neighbor, or nullopt when none of
  /// the current neighbors are active. Implementations may prune dead
  /// entries as a side effect.
  virtual std::optional<sim::NodeId> sample_active_peer(sim::Engine& engine,
                                                        sim::NodeId self) = 0;

  /// Snapshot of the current neighbor set (may include dead entries).
  [[nodiscard]] virtual std::vector<sim::NodeId> neighbor_view() const = 0;
};

}  // namespace glap::overlay
