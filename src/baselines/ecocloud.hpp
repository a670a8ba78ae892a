// EcoCloud — probabilistic gradual consolidation (Mastroianni, Meo,
// Papuzzo — IEEE TCC 2013), configured as in the GLAP evaluation:
// lower threshold T1 = 0.3, upper threshold T2 = 0.8.
//
// Each server periodically evaluates Bernoulli trials on local state:
//   * below T2: with a probability that grows as the server empties, it
//     attempts a *whole-server evacuation* toward hibernation. The
//     evacuation is planned first (every VM probes candidate servers,
//     reserving planned capacity) and executed only when complete, so
//     every consolidation migration contributes to a switch-off; a failed
//     plan costs nothing and starts a cooldown.
//   * above T2: a Bernoulli trial (ramping with the excess) sheds one VM.
// A migrating VM is offered to candidate servers (the original system
// broadcasts through a coordinator; we probe a bounded random sample of
// active servers, which the GLAP paper notes as EcoCloud's scalability
// weakness). Each candidate accepts via a Bernoulli trial whose success
// probability peaks just below T2 — servers prefer filling up, but never
// past the threshold. A drained server hibernates.
#pragma once

#include "cloud/datacenter.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace glap::baselines {

struct EcoCloudConfig {
  double lower_threshold = 0.3;  ///< T1
  double upper_threshold = 0.8;  ///< T2
  /// Shape of the acceptance function f(u) ∝ (u/T2)^p · (1 − u/T2);
  /// larger p moves the acceptance peak closer to T2.
  double accept_shape = 3.0;
  /// Candidate servers probed per migration attempt (coordinator fan-out).
  std::size_t probe_count = 16;
  /// Scale of the underload migration probability at u = 0.
  double migrate_prob_scale = 0.9;
  /// Residual drain probability scale between T1 and T2: without it a
  /// static VM population stalls in the (T1, T2) dead band and the system
  /// never approaches the packing the EcoCloud paper reports under churn.
  double mid_band_scale = 0.06;
  /// Rounds a server waits after a failed evacuation plan before its
  /// drain Bernoulli may fire again.
  std::uint32_t evacuation_cooldown = 150;
};

class EcoCloudProtocol final : public sim::Protocol {
 public:
  EcoCloudProtocol(const EcoCloudConfig& config, cloud::DataCenter& dc,
                   Rng rng);

  static sim::Engine::ProtocolSlot install(sim::Engine& engine,
                                           const EcoCloudConfig& config,
                                           cloud::DataCenter& dc,
                                           std::uint64_t seed);

  void execute(sim::Engine& engine, sim::NodeId self) override;

  /// Rounds left before this server's drain Bernoulli may fire again
  /// (non-zero only after a failed evacuation plan).
  [[nodiscard]] std::uint32_t cooldown_remaining() const noexcept {
    return cooldown_;
  }

  /// Acceptance probability of a server at utilization u (pure; tested).
  [[nodiscard]] static double acceptance_probability(
      double utilization, const EcoCloudConfig& config) noexcept;

  /// Underload migration probability at utilization u (pure; tested).
  [[nodiscard]] static double underload_migration_probability(
      double utilization, const EcoCloudConfig& config) noexcept;

 private:
  /// Probes up to probe_count random servers for `vm`, counting probe
  /// messages, and returns the first accepting candidate. Reads but never
  /// mutates data-center state.
  std::optional<cloud::PmId> probe_place(sim::Engine& engine,
                                         cloud::PmId source, cloud::VmId vm);

  /// Plans a complete evacuation of `source` into `plan` (a target for
  /// every hosted VM, probabilistic acceptance against planned
  /// utilization, capacity reserved as the plan grows). Returns false on
  /// an incomplete plan; nothing migrates here.
  bool plan_evacuation(sim::Engine& engine, sim::NodeId self,
                       cloud::PmId source,
                       std::vector<std::pair<cloud::VmId, cloud::PmId>>& plan);

  /// Offers `vm` to up to probe_count random active servers; each accepts
  /// via its Bernoulli trial plus a hard capacity check. Returns true when
  /// the VM migrated. Used by the overload-relief path.
  bool try_place(sim::Engine& engine, cloud::PmId source, cloud::VmId vm);

  /// Atomic evacuation: executes all planned migrations and hibernates
  /// only when the plan is complete, otherwise migrates nothing.
  bool try_evacuate(sim::Engine& engine, sim::NodeId self, cloud::PmId source);

  /// Picks the VM to shed: smallest current memory (cheapest migration).
  [[nodiscard]] std::optional<cloud::VmId> pick_vm(cloud::PmId pm) const;

  EcoCloudConfig config_;
  cloud::DataCenter& dc_;
  Rng rng_;
  std::uint32_t cooldown_ = 0;
  sim::Engine::ProtocolSlot self_slot_ = 0;
  bool self_slot_known_ = false;

  friend struct EcoCloudInstaller;
};

}  // namespace glap::baselines
