// Cyclon: inexpensive membership management for unstructured P2P overlays
// (Voulgaris, Gavidia, van Steen — JNSM 2005). This is the membership
// layer GLAP runs on (paper Fig. 2).
//
// Each node keeps a small cache of (neighbor, age) entries. Once per round
// it ages all entries, contacts its *oldest* neighbor, and the two swap
// random subsets of size ℓ (the initiator replaces its own entry, age 0,
// into the sent subset). The resulting overlay approximates a random graph
// with strong connectivity and an in-degree distribution concentrated
// around the cache size — properties the overlay tests verify.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "overlay/neighbor_provider.hpp"

namespace glap::metrics {
class Counter;
class OrderedHistogram;
}  // namespace glap::metrics

namespace glap::overlay {

class CyclonProtocol final : public NeighborProvider {
 public:
  static constexpr std::size_t kCacheSize = 20;     ///< c: cache capacity
  static constexpr std::size_t kShuffleLength = 8;  ///< ℓ: entries per shuffle
  static_assert(0 < kShuffleLength && kShuffleLength <= kCacheSize,
                "cyclon shuffle length must be in [1, cache size]");

  struct Entry {
    sim::NodeId id;
    std::uint32_t age;
  };

  /// Registry instruments shared by every instance (null = disabled).
  struct Telemetry {
    metrics::Counter* shuffles = nullptr;                ///< cyclon.shuffles
    metrics::OrderedHistogram* shuffle_entries = nullptr;
  };

  /// `self` is the slot this instance is installed in; shuffles reach the
  /// peer's instance through it.
  CyclonProtocol(sim::Slot<CyclonProtocol> self, Rng rng, Telemetry telemetry);

  /// Installs a Cyclon instance on every node of the engine, bootstrapped
  /// with kCacheSize random neighbors each, and returns the slot.
  static sim::Slot<CyclonProtocol> install(sim::Engine& engine,
                                           std::uint64_t seed);

  void execute(sim::Engine& engine, sim::NodeId self) override;

  std::optional<sim::NodeId> sample_active_peer(sim::Engine& engine,
                                                sim::NodeId self) override;

  /// Quiescence vote: always yes. The membership layer only serves the
  /// components above it; a parked node's cache simply stops refreshing,
  /// and active nodes keep shuffling with the parked node's entries.
  [[nodiscard]] bool can_quiesce(const sim::Engine& /*engine*/,
                                 sim::NodeId /*self*/) const override {
    return true;
  }

  [[nodiscard]] std::vector<sim::NodeId> neighbor_view() const override;

  /// Passive side of a shuffle: merges the initiator's subset and returns
  /// a random subset of (up to) kShuffleLength local entries. The returned
  /// reference aliases an internal scratch buffer that stays valid until
  /// this instance's next handle_shuffle call.
  const std::vector<Entry>& handle_shuffle(sim::NodeId self,
                                           sim::NodeId initiator,
                                           const std::vector<Entry>& received);

  /// Seeds the cache (bootstrap); ignores self-links and duplicates.
  void bootstrap(sim::NodeId self, const std::vector<sim::NodeId>& neighbors);

  [[nodiscard]] const std::vector<Entry>& cache() const noexcept {
    return cache_;
  }

  /// Removes every cache entry pointing at `peer` (dead-link pruning).
  void remove_neighbor(sim::NodeId peer);

 private:
  void merge(sim::NodeId self, const std::vector<Entry>& received,
             const std::vector<Entry>& sent);
  [[nodiscard]] std::optional<std::size_t> oldest_entry_index() const;
  void take_random_subset(std::size_t count,
                          std::optional<std::size_t> forced,
                          std::vector<Entry>& out);

  sim::Slot<CyclonProtocol> self_;
  Rng rng_;
  Telemetry telemetry_;
  std::vector<Entry> cache_;

  // Scratch buffers reused across rounds: the shuffle exchange used to
  // allocate fresh vectors on both sides every round.
  std::vector<std::size_t> scratch_indices_;
  std::vector<Entry> scratch_sent_;      ///< initiator: subset shipped out
  std::vector<Entry> scratch_outgoing_;  ///< initiator: sent + own entry
  std::vector<Entry> scratch_reply_;     ///< passive side: reply subset
  std::vector<Entry> scratch_incoming_;  ///< passive side: received + link
};

}  // namespace glap::overlay
