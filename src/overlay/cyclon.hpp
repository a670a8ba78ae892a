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

struct CyclonConfig {
  std::size_t cache_size = 20;      ///< c: neighbor cache capacity
  std::size_t shuffle_length = 8;   ///< ℓ: entries exchanged per shuffle
  /// Retries when the chosen shuffle partner turns out to be dead; each
  /// failure removes the dead entry (Cyclon's self-healing behaviour).
  std::size_t dead_peer_retries = 3;
};

class CyclonProtocol final : public NeighborProvider {
 public:
  struct Entry {
    sim::NodeId id;
    std::uint32_t age;
  };

  CyclonProtocol(CyclonConfig config, Rng rng);

  /// Installs a Cyclon instance on every node of the engine, bootstrapped
  /// with `config.cache_size` random neighbors each, and returns the slot.
  static sim::Engine::ProtocolSlot install(sim::Engine& engine,
                                           const CyclonConfig& config,
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
  /// a random subset of (up to) shuffle_length local entries. The returned
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
  [[nodiscard]] const CyclonConfig& config() const noexcept { return config_; }

  /// Removes every cache entry pointing at `peer` (dead-link pruning).
  void remove_neighbor(sim::NodeId peer);

 private:
  void merge(sim::NodeId self, const std::vector<Entry>& received,
             const std::vector<Entry>& sent);
  [[nodiscard]] std::optional<std::size_t> oldest_entry_index() const;
  void take_random_subset(std::size_t count,
                          std::optional<std::size_t> forced,
                          std::vector<Entry>& out);

  /// Resolves (once per instance) the shared shuffle instruments from the
  /// engine's registry; no-ops into the disabled state when none attached.
  void resolve_telemetry(sim::Engine& engine);

  CyclonConfig config_;
  Rng rng_;
  std::vector<Entry> cache_;
  sim::Engine::ProtocolSlot slot_ = 0;
  bool slot_known_ = false;
  bool telemetry_resolved_ = false;
  metrics::Counter* ctr_shuffles_ = nullptr;          ///< cyclon.shuffles
  metrics::OrderedHistogram* hist_entries_ = nullptr;  ///< cyclon.shuffle_entries

  // Scratch buffers reused across rounds: the shuffle exchange used to
  // allocate fresh vectors on both sides every round.
  std::vector<std::size_t> scratch_indices_;
  std::vector<Entry> scratch_sent_;      ///< initiator: subset shipped out
  std::vector<Entry> scratch_outgoing_;  ///< initiator: sent + own entry
  std::vector<Entry> scratch_reply_;     ///< passive side: reply subset
  std::vector<Entry> scratch_incoming_;  ///< passive side: received + link

  friend struct CyclonInstaller;
};

}  // namespace glap::overlay
