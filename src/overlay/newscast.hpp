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

class NewscastProtocol final : public NeighborProvider {
 public:
  static constexpr std::size_t kCacheSize = 20;  ///< c: news items kept
  static_assert(kCacheSize > 0, "newscast cache size must be positive");

  struct Item {
    sim::NodeId id;
    std::uint32_t timestamp;
  };

  /// `self` is the slot this instance is installed in; `exchanges`
  /// mirrors newscast.exchanges (null = disabled).
  NewscastProtocol(sim::Slot<NewscastProtocol> self, Rng rng,
                   metrics::Counter* exchanges);

  static sim::Slot<NewscastProtocol> install(sim::Engine& engine,
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
  /// the kCacheSize freshest distinct ids.
  void merge(sim::NodeId self, const std::vector<Item>& incoming);

  sim::Slot<NewscastProtocol> self_;
  Rng rng_;
  metrics::Counter* ctr_exchanges_;
  std::vector<Item> cache_;
};

}  // namespace glap::overlay
