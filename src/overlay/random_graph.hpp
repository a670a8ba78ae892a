// Static k-regular-ish random overlay: each node gets k random distinct
// neighbors at install time and the set never changes. Used as a simple,
// analyzable NeighborProvider in tests and as an ablation against Cyclon
// (no self-healing: dead neighbors are skipped, not replaced).
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "overlay/neighbor_provider.hpp"

namespace glap::overlay {

struct RandomGraphConfig {
  std::size_t degree = 20;
};

class RandomGraphProtocol final : public NeighborProvider {
 public:
  RandomGraphProtocol(std::vector<sim::NodeId> neighbors, Rng rng)
      : neighbors_(std::move(neighbors)), rng_(rng) {}

  /// Installs the overlay on every node and returns its slot.
  static sim::Engine::ProtocolSlot install(sim::Engine& engine,
                                           const RandomGraphConfig& config,
                                           std::uint64_t seed);

  /// The static overlay does nothing per round.
  void execute(sim::Engine&, sim::NodeId) override {}

  std::optional<sim::NodeId> sample_active_peer(sim::Engine& engine,
                                                sim::NodeId self) override;

  [[nodiscard]] std::vector<sim::NodeId> neighbor_view() const override {
    return neighbors_;
  }

 private:
  std::vector<sim::NodeId> neighbors_;
  Rng rng_;
};

}  // namespace glap::overlay
