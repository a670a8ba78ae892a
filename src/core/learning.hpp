// Local training — the learning phase of the two-phase protocol
// (Algorithm 1). A PM simulates the consolidation process over a pool of
// VM profiles (its own plus one neighbor's, duplicated to cover highly
// loaded states): k times per round it draws a sender subset and a target
// subset, "migrates" a random VM between them, and applies the Bellman
// update to both Q-tables.
//
// The states before an action (and the VM's action level) come from
// *average* demands; the state after the action comes from *current*
// demands — the §IV-B split that teaches the tables how volatile each
// workload pattern really is.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/profiles.hpp"
#include "core/qtable_pair.hpp"

namespace glap::core {

class LocalTrainer {
 public:
  /// k — simulated sender/target consolidation steps per learning round.
  static constexpr std::size_t kTrainIterationsPerRound = 24;
  static_assert(kTrainIterationsPerRound > 0, "training needs iterations");
  /// The profile pool is duplicated until its aggregate average CPU could
  /// fill this many PMs (covers highly loaded states, §IV-B).
  static constexpr double kDuplicatePoolPmMultiple = 2.5;

  /// train_round's round-loop buffers: pool indices in draw order and the
  /// two drawn subsets. They keep their capacity across calls, and one
  /// set can serve every trainer that never runs concurrently.
  struct Scratch {
    std::vector<std::size_t> order;
    std::vector<std::size_t> sender;
    std::vector<std::size_t> target;
  };

  /// Keeps config.use_average_state, the one setting training reads.
  LocalTrainer(const GlapConfig& config, Resources pm_capacity, Rng rng);

  /// Duplicates `pool` entries in place (round-robin) until the pool's
  /// aggregate average CPU could fill kDuplicatePoolPmMultiple PMs; no-op
  /// when the pool is already big enough or empty.
  void grow_pool(std::vector<VmProfile>& pool) const;

  /// Value-returning convenience wrapper around grow_pool.
  [[nodiscard]] std::vector<VmProfile> duplicate_if_required(
      std::vector<VmProfile> pool) const {
    grow_pool(pool);
    return pool;
  }

  /// One learning round: k simulated consolidation steps over `pool`,
  /// updating `tables` in place. Pools smaller than 2 profiles are a no-op
  /// (nothing to migrate between subsets).
  void train_round(const std::vector<VmProfile>& pool, QTablePair& tables,
                   Scratch& scratch);

 private:
  /// Draws into `out` a random subset of pool indices whose aggregate
  /// average CPU utilization approaches a uniformly drawn target in
  /// [0.05, 1.1]; `order` holds the shuffled indices.
  void draw_subset(const std::vector<VmProfile>& pool,
                   std::vector<std::size_t>& order,
                   std::vector<std::size_t>& out);

  [[nodiscard]] qlearn::State subset_state(
      const std::vector<VmProfile>& pool,
      const std::vector<std::size_t>& subset, bool use_average,
      std::size_t excluded, const VmProfile* added) const;

  Resources pm_capacity_;
  Rng rng_;
  bool use_average_state_;
};

}  // namespace glap::core
