#include "overlay/random_graph.hpp"

#include <algorithm>

namespace glap::overlay {

sim::Slot<RandomGraphProtocol> RandomGraphProtocol::install(
    sim::Engine& engine, const RandomGraphConfig& config, std::uint64_t seed) {
  GLAP_REQUIRE(config.degree > 0, "random graph degree must be positive");
  const std::size_t n = engine.node_count();
  Rng master(hash_combine(seed, hash_tag("random-graph")));
  return engine.add_protocol_pool<RandomGraphProtocol>(
      [&](sim::NodeId node, sim::Slot<RandomGraphProtocol> /*self*/) {
        const auto i = static_cast<std::size_t>(node);
        std::vector<sim::NodeId> neighbors;
        if (n > 1) {
          // Ring edge for guaranteed connectivity + random chords.
          neighbors.push_back(static_cast<sim::NodeId>((i + 1) % n));
          const std::size_t target = std::min(config.degree, n - 1);
          while (neighbors.size() < target) {
            auto candidate = static_cast<sim::NodeId>(master.bounded(n));
            if (candidate == i) continue;
            if (std::find(neighbors.begin(), neighbors.end(), candidate) !=
                neighbors.end())
              continue;
            neighbors.push_back(candidate);
          }
        }
        return RandomGraphProtocol(std::move(neighbors), master.split(i));
      });
}

std::optional<sim::NodeId> RandomGraphProtocol::sample_active_peer(
    sim::Engine& engine, sim::NodeId /*self*/) {
  if (neighbors_.empty()) return std::nullopt;
  // Sample without replacement until an active neighbor is found.
  std::vector<std::size_t> order(neighbors_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng_.shuffle(order);
  for (std::size_t idx : order) {
    const sim::NodeId peer = neighbors_[idx];
    if (engine.is_active(peer)) return peer;
  }
  return std::nullopt;
}

}  // namespace glap::overlay
