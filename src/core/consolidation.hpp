// The Gossip Workload Consolidation component (paper §IV-D, Algorithm 3).
//
// Each round a PM exchanges state with one random overlay neighbor
// (push-pull). If either party is overloaded it sheds VMs while
// overloaded; otherwise the PM with the lower (average) total utilization
// becomes the sender and drains toward switch-off. Every candidate
// migration passes three gates evaluated *on the sender* (Q-tables are
// identical after aggregation, and the sender knows the target's state, so
// no extra round-trip is needed):
//   1. π_out — the VM whose action has the greatest Q_out(s_sender, ·),
//      ties broken by least migration cost (current memory footprint);
//   2. π_in  — rejected when Q_in(s_target, a) < 0 (the learned predictor
//      of "this lands the target in overload now or soon");
//   3. capacity — the target must fit the VM's *current* demand.
// A sender that fully drains switches to sleep and leaves the overlay.
#pragma once

#include <memory>

#include "cloud/datacenter.hpp"
#include "cloud/topology.hpp"
#include "core/config.hpp"
#include "core/gossip_learning.hpp"
#include "overlay/neighbor_provider.hpp"

// glap::metrics::Counter is forward-declared by gossip_learning.hpp.

namespace glap::core {

/// Per-run consolidation counters (for tests and ablation benches).
struct ConsolidationStats {
  std::uint64_t exchanges = 0;       ///< state push-pulls performed
  std::uint64_t migrations = 0;      ///< successful migrations initiated
  std::uint64_t rejected_by_pi_in = 0;
  std::uint64_t rejected_by_capacity = 0;
  std::uint64_t no_vm_available = 0;
  std::uint64_t switch_offs = 0;
};

class GlapConsolidationProtocol final : public sim::Protocol {
 public:
  /// Registry mirrors of ConsolidationStats, shared by every instance
  /// (null = disabled).
  struct Telemetry {
    metrics::Counter* exchanges = nullptr;
    metrics::Counter* pi_in_rejects = nullptr;
    metrics::Counter* capacity_rejects = nullptr;
    metrics::Counter* switch_offs = nullptr;
  };

  /// The layers this one reads: peer sampling and the learned tables.
  struct Slots {
    sim::Slot<overlay::NeighborProvider> overlay;
    sim::Slot<GossipLearningProtocol> learning;
  };

  /// Round-loop buffers, one set per pool (install creates it and hands
  /// it to every instance): a pool's instances run one at a time and use
  /// them only within one execute call.
  struct Scratch {
    std::vector<qlearn::Action> actions;  ///< find_vm's per-VM action levels
    std::vector<cloud::PmId> rack;        ///< sample_peer's shuffled rack
  };

  /// `topology` may be null (vanilla GLAP); when set and
  /// config.rack_affinity > 0, peer sampling and the drain rule become
  /// rack-aware (see GlapConfig::rack_affinity).
  GlapConsolidationProtocol(const GlapConfig& config, cloud::DataCenter& dc,
                            Slots slots, Telemetry telemetry,
                            const cloud::RackTopology* topology, Rng rng,
                            std::shared_ptr<Scratch> scratch);

  static sim::Slot<GlapConsolidationProtocol> install(
      sim::Engine& engine, const GlapConfig& config, cloud::DataCenter& dc,
      Slots slots, std::uint64_t seed,
      const cloud::RackTopology* topology = nullptr);

  void execute(sim::Engine& engine, sim::NodeId self) override;

  /// Quiescence vote: consolidation has started, the last
  /// `quiescence.idle_rounds` exchanges moved no VM, and the most recent
  /// partner-table cosine similarity reached
  /// `quiescence.similarity_threshold`. The learning component's own
  /// vote covers the "tables unified" precondition, so it is not
  /// re-checked here.
  [[nodiscard]] bool can_quiesce(const sim::Engine& engine,
                                 sim::NodeId self) const override;

  [[nodiscard]] const ConsolidationStats& stats() const noexcept {
    return stats_;
  }

  /// Last partner-table cosine similarity measured by the quiescence
  /// candidate check (-2 until one has been computed; never computed
  /// while the engine's quiescence is off). Test hook.
  [[nodiscard]] double last_partner_similarity() const noexcept {
    return last_similarity_;
  }

 private:
  enum class Mode { kShedOverload, kDrainToSleep };

  /// UPDATESTATE: decides roles and runs the MIGRATE loop. Returns the
  /// number of VMs moved (the quiescence calm counter feeds on it).
  std::size_t update_state(sim::Engine& engine, cloud::PmId p, cloud::PmId q);

  /// MIGRATE loop from `sender` to `recipient`; returns the number of VMs
  /// moved. Stops on π_in rejection, missing VM, or lack of capacity.
  std::size_t migrate_loop(sim::Engine& engine, cloud::PmId sender,
                           cloud::PmId recipient, Mode mode);

  /// π_out + least-migration-cost tie-break. Returns the chosen VM and its
  /// action, or nullopt when the sender hosts no VMs. Non-const: fills the
  /// pool's scratch actions.
  [[nodiscard]] std::optional<std::pair<cloud::VmId, qlearn::Action>> find_vm(
      const qlearn::QTable& out_table, qlearn::State sender_state,
      cloud::PmId sender);

  [[nodiscard]] qlearn::State pm_state(cloud::PmId pm) const;

  /// Rack-affinity peer sampling: a random active same-rack PM with
  /// probability rack_affinity, the overlay sample otherwise.
  [[nodiscard]] std::optional<sim::NodeId> sample_peer(sim::Engine& engine,
                                                       sim::NodeId self);

  GlapConfig config_;
  cloud::DataCenter& dc_;
  Slots slots_;
  Telemetry telemetry_;
  const cloud::RackTopology* topology_;
  Rng rng_;
  ConsolidationStats stats_;
  sim::Round cycles_ = 0;
  // Quiescence candidate state: consecutive migration-free exchanges and
  // the similarity measured once the calm streak nears the vote
  // threshold (so non-candidates never pay the cosine scan).
  sim::Round calm_rounds_ = 0;
  double last_similarity_ = -2.0;
  std::shared_ptr<Scratch> scratch_;
};

}  // namespace glap::core
