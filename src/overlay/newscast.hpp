// Newscast — the other classic gossip membership protocol (Jelasity &
// van Steen). Included as an alternative NeighborProvider so GLAP's
// dependence on the peer-sampling layer can be ablated against Cyclon.
//
// Each node caches up to c "news items" (peer id, logical timestamp).
// Once per round it picks a random cache member; the two union their
// caches plus fresh self-entries and each keeps the c freshest distinct
// items. Compared to Cyclon, Newscast refreshes aggressively (timestamps
// dominate) which yields faster dissemination but a more skewed
// in-degree distribution.
#pragma once

#include <cstddef>
#include <optional>

#include "common/rng.hpp"
#include "overlay/neighbor_provider.hpp"

namespace glap::metrics {
class Counter;
}

namespace glap::overlay {

struct NewscastConfig {
  std::size_t cache_size = 20;
  std::size_t dead_peer_retries = 3;
};

class NewscastProtocol final : public NeighborProvider {
 public:
  struct Item {
    sim::NodeId id;
    std::uint32_t timestamp;
  };

  NewscastProtocol(NewscastConfig config, Rng rng);

  static sim::Engine::ProtocolSlot install(sim::Engine& engine,
                                           const NewscastConfig& config,
                                           std::uint64_t seed);

  void execute(sim::Engine& engine, sim::NodeId self) override;

  std::optional<sim::NodeId> sample_active_peer(sim::Engine& engine,
                                                sim::NodeId self) override;

  /// Quiescence vote: always yes (same contract as CyclonProtocol — the
  /// membership layer never keeps a converged node awake).
  [[nodiscard]] bool can_quiesce(const sim::Engine& /*engine*/,
                                 sim::NodeId /*self*/) const override {
    return true;
  }

  [[nodiscard]] std::vector<sim::NodeId> neighbor_view() const override;

  /// Passive side: merges the initiator's items (plus a fresh entry for
  /// the initiator itself) and returns a snapshot of the local cache
  /// taken *before* the merge.
  std::vector<Item> handle_exchange(sim::NodeId self, sim::NodeId initiator,
                                    const std::vector<Item>& received,
                                    std::uint32_t now);

  void bootstrap(sim::NodeId self, const std::vector<sim::NodeId>& peers);

  [[nodiscard]] const std::vector<Item>& cache() const noexcept {
    return cache_;
  }

 private:
  /// Unions `incoming` into the cache, dropping self-entries and keeping
  /// the cache_size freshest distinct ids.
  void merge(sim::NodeId self, const std::vector<Item>& incoming);

  NewscastConfig config_;
  Rng rng_;
  std::vector<Item> cache_;
  sim::Engine::ProtocolSlot slot_ = 0;
  bool slot_known_ = false;
  bool telemetry_resolved_ = false;
  metrics::Counter* ctr_exchanges_ = nullptr;  ///< newscast.exchanges

  friend struct NewscastInstaller;
};

}  // namespace glap::overlay
