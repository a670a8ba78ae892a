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

  GossipLearningProtocol(const GlapConfig& config, cloud::DataCenter& dc,
                         sim::Engine::ProtocolSlot overlay_slot,
                         Resources pm_capacity, Rng rng);

  /// Installs one instance per node; `overlay_slot` must host a
  /// NeighborProvider.
  static sim::Engine::ProtocolSlot install(
      sim::Engine& engine, const GlapConfig& config, cloud::DataCenter& dc,
      sim::Engine::ProtocolSlot overlay_slot, std::uint64_t seed);

  void execute(sim::Engine& engine, sim::NodeId self) override;

  /// Quiescence vote: done once both phases have run and no deferred
  /// network exchange is in flight. A relearn retrigger resets the
  /// phase; the harness wakes every node then.
  [[nodiscard]] bool can_quiesce(const sim::Engine& /*engine*/,
                                 sim::NodeId /*self*/) const override {
    return phase() == Phase::kIdle && !pending_.active;
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
  void complete_pending(sim::Engine& engine, sim::NodeId self);

  /// A table push-pull the network model delayed (DESIGN.md §13.4): the
  /// merge runs at `due` with delivery-time state. One in flight per
  /// node — the initiator blocks on the outstanding reply.
  struct PendingExchange {
    bool active = false;
    sim::NodeId partner = 0;
    sim::Round due = 0;
    std::uint64_t msg_id = 0;
    sim::Round delay = 0;
  };

  GlapConfig config_;
  cloud::DataCenter& dc_;
  sim::Engine::ProtocolSlot overlay_slot_;
  sim::Engine::ProtocolSlot self_slot_ = 0;
  bool self_slot_known_ = false;
  bool telemetry_resolved_ = false;
  metrics::Counter* ctr_train_ = nullptr;  ///< learning.train_cycles
  metrics::Counter* ctr_merge_ = nullptr;  ///< learning.merges
  LocalTrainer trainer_;
  QTablePair tables_;
  // Round-loop scratch: learning_cycle used to allocate the profile pool
  // and the remote snapshot every round; capacity persists across rounds.
  std::vector<VmProfile> scratch_pool_;
  std::vector<VmProfile> scratch_remote_;
  sim::Round cycles_ = 0;
  sim::Round learning_rounds_;
  sim::Round aggregation_rounds_;
  PendingExchange pending_;

  friend struct GossipLearningInstaller;
};

}  // namespace glap::core
