// The Gossip Learning component (paper §IV-B): the two-phase distributed
// protocol that first trains Q-values locally (Algorithm 1) and then
// unifies them through push-pull gossip averaging (Algorithm 2).
//
// Phase scheduling is per-node and cycle-counted: the first
// `learning_rounds` cycles run local training, the next
// `aggregation_rounds` cycles run gossip aggregation, after which the
// component goes idle and the consolidation component (which polls
// phase()) starts using the unified tables. This mirrors the paper's
// "700 more rounds to calculate Q-values beforehand".
#pragma once

#include <memory>

#include "cloud/datacenter.hpp"
#include "core/config.hpp"
#include "core/learning.hpp"
#include "core/qtable_pair.hpp"
#include "overlay/neighbor_provider.hpp"

namespace glap::metrics {
class Counter;
}

namespace glap::core {

class GossipLearningProtocol final : public sim::Protocol {
 public:
  enum class Phase { kLearning, kAggregation, kIdle };

  /// Learning phase: only PMs with average utilization at or below this
  /// run local training (the evaluation uses PMs with ≥50% free CPU).
  static constexpr double kLearningUtilThreshold = 0.5;

  /// Registry instruments shared by every instance (null = disabled).
  struct Telemetry {
    metrics::Counter* train_cycles = nullptr;  ///< learning.train_cycles
    metrics::Counter* merges = nullptr;        ///< learning.merges
  };

  /// The slots this instance talks to: the peer-sampling overlay and its
  /// own slot, through which it reaches the peers' tables.
  struct Slots {
    sim::Slot<overlay::NeighborProvider> overlay;
    sim::Slot<GossipLearningProtocol> self;
  };

  /// Round-loop buffers of learning_cycle. A pool's instances run one at
  /// a time and use them only within one execute call, so install creates
  /// one set and hands it to every instance; capacity persists across
  /// rounds.
  struct Scratch {
    std::vector<VmProfile> pool;    ///< own profiles, then the peer's
    std::vector<VmProfile> remote;  ///< the peer's shared profiles
    LocalTrainer::Scratch train;
  };

  GossipLearningProtocol(const GlapConfig& config, cloud::DataCenter& dc,
                         Slots slots, Telemetry telemetry,
                         Resources pm_capacity, Rng rng,
                         std::shared_ptr<Scratch> scratch);

  /// Installs one instance per node over the peer-sampling `overlay`.
  static sim::Slot<GossipLearningProtocol> install(
      sim::Engine& engine, const GlapConfig& config, cloud::DataCenter& dc,
      sim::Slot<overlay::NeighborProvider> overlay, std::uint64_t seed);

  void execute(sim::Engine& engine, sim::NodeId self) override;

  /// Quiescence vote: done once both phases have run. A relearn
  /// retrigger resets the phase; the harness wakes every node then.
  [[nodiscard]] bool can_quiesce(const sim::Engine& /*engine*/,
                                 sim::NodeId /*self*/) const override {
    return phase() == Phase::kIdle;
  }

  [[nodiscard]] Phase phase() const noexcept;
  [[nodiscard]] const QTablePair& tables() const noexcept { return tables_; }
  [[nodiscard]] QTablePair& tables_mutable() noexcept { return tables_; }

  /// Re-enters the learning phase (paper §IV-B: learning "runs as
  /// required by a predefined policy, e.g. if the arrival and departure
  /// rates of VMs exceed a threshold ... or based on a fixed time
  /// interval"; the trigger comes from an oracle — here the harness).
  /// Existing Q-values are refined, not discarded: formula (1)'s α blends
  /// the new environment into the old knowledge.
  void retrigger(sim::Round learning_rounds, sim::Round aggregation_rounds);

  /// Profiles this PM would share with a learning neighbor.
  [[nodiscard]] std::vector<VmProfile> shared_profiles(
      sim::NodeId self) const {
    return profiles_of(dc_, static_cast<cloud::PmId>(self));
  }

  /// Allocation-free variant: clears and fills `*out` (hot path).
  void shared_profiles(sim::NodeId self, std::vector<VmProfile>* out) const {
    profiles_of(dc_, static_cast<cloud::PmId>(self), out);
  }

 private:
  void learning_cycle(sim::Engine& engine, sim::NodeId self);
  void aggregation_cycle(sim::Engine& engine, sim::NodeId self);

  cloud::DataCenter& dc_;
  Slots slots_;
  Telemetry telemetry_;
  LocalTrainer trainer_;
  QTablePair tables_;
  std::shared_ptr<Scratch> scratch_;
  sim::Round cycles_ = 0;
  sim::Round learning_rounds_;
  sim::Round aggregation_rounds_;
};

}  // namespace glap::core
