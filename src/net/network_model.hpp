// Deterministic message-level network model for the gossip substrate
// (DESIGN.md §13). Models the two-tier datacenter fabric the rack
// topology implies: every PM hangs off one access link, racks share an
// oversubscribed top-of-rack uplink, and the core is non-blocking. An
// exchange is delivered in the round it is sent — drop-tail admission
// takes it only while every queue on its route stays within a quarter
// round of service, so the reply is in hand before the round ends — or
// dropped, either by the configured random loss rate or because a link's
// drop-tail queue is full. Live migrations are charged to the same links
// (DataCenter's migration-network hook), so a migration storm stretches
// its own τ and can congestion-drop the gossip that scheduled it.
//
// Determinism: the model holds no RNG stream. Loss decisions hash
// (seed, msg_id) through splitmix64, and msg ids are assigned in executed
// interaction order, which the engine's round loop fixes per (config,
// seed) (DESIGN.md §13.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/round_time.hpp"
#include "common/trace_schema.hpp"
#include "sim/node.hpp"

namespace glap::metrics {
class MetricsRegistry;
class Counter;
}  // namespace glap::metrics
namespace glap::trace {
class TraceLog;
}

namespace glap::net {

/// Knobs for the two-tier fabric (all deterministic; DESIGN.md §13.2).
/// Defaults describe a healthy 1 GbE edge where gossip-sized payloads see
/// no congestion, i.e. the modeled network is behaviorally identical to
/// the ideal one until loss or contention bite.
struct NetworkConfig {
  bool enabled = false;
  /// Access-link bandwidth per PM (both directions share one queue).
  double access_gbps = 1.0;
  /// Probability that one leg of an exchange is lost (per-message
  /// counter-hash, not an RNG stream). A push-pull round trip has two
  /// legs, so its loss probability is 1 - (1 - loss_rate)^2.
  double loss_rate = 0.0;
  /// Charge live-migration payloads (VM memory) to the same links, so
  /// migrations stretch their own τ and can drown gossip.
  bool migration_contention = true;
};

/// Traffic classes and drop reasons are the trace schema's vocabularies,
/// so "net" events carry exactly the values the model uses.
using Channel = trace::Channel;
using DropReason = trace::DropReason;

/// Admission decision for one exchange: delivered this round (reason
/// kNone), or dropped for `reason`.
struct Verdict {
  DropReason reason = DropReason::kNone;
  std::uint64_t msg_id = 0;
  [[nodiscard]] bool ok() const noexcept {
    return reason == DropReason::kNone;
  }
};

class NetworkModel {
 public:
  /// Drop-tail queue limit per link, as a fraction of one round's service
  /// capacity: a message that would push a link's backlog past
  /// kQueueLimitRounds * bytes_per_round is dropped as congested. Kept
  /// below one round, so an admitted exchange waits less than a round
  /// behind the bytes queued ahead of it: its reply lands in the round it
  /// was sent, and no protocol holds an exchange across a round boundary.
  static constexpr double kQueueLimitRounds = 0.25;
  static_assert(kQueueLimitRounds > 0.0 && kQueueLimitRounds < 1.0,
                "an admitted exchange must complete within its round");
  /// ToR uplink capacity = access_gbps * rack_size / kOversubscription.
  static constexpr double kOversubscription = 4.0;
  static_assert(kOversubscription >= 1.0, "oversubscription must be >= 1");

  /// `rack_size` groups consecutive PM ids exactly like cloud::RackTopology;
  /// 0 (no topology) means racks of 32.
  NetworkModel(std::size_t pm_count, std::size_t rack_size,
               const NetworkConfig& config, std::uint64_t seed);

  /// Observability sinks (neither owned; either may be null). Attach
  /// before the first round; "net" trace events are buffered through the
  /// ordered TraceLog path so they are safe from inside interactions.
  void set_telemetry(metrics::MetricsRegistry* metrics,
                     trace::TraceLog* trace);

  /// Advances simulated time: drains one round of service capacity from
  /// every link backlog. The harness calls this once per round, before
  /// Engine::step(), for warmup and evaluation rounds alike.
  void begin_round(sim::Round round);

  /// Admits one push-pull exchange (request `fwd_bytes` from `from` to
  /// `to`, reply `rev_bytes` back). Charges both legs to the route on
  /// success; the caller then completes the exchange this round.
  Verdict round_trip(sim::NodeId from, sim::NodeId to, std::size_t fwd_bytes,
                     std::size_t rev_bytes, Channel channel);

  /// Charges a live migration's memory payload to the route and returns
  /// the extra seconds the stream spends queued behind traffic already in
  /// flight on the slowest link (added to τ by DataCenter's hook).
  /// Migrations are never dropped — pre-copy retransmits — but they are
  /// the main source of backlog the gossip channels then see.
  double migration_delay_seconds(sim::NodeId from, sim::NodeId to,
                                 double mem_mb);

  /// Driver-only: writes one "net" queue-depth line per link with a
  /// nonzero backlog (link-id order). Call only between rounds.
  void trace_queue_depths(sim::Round round);

  // ---- run-level counters (pure function of config and seed) ----
  struct Totals {
    std::uint64_t sends = 0;         ///< exchanges attempted
    std::uint64_t delivered = 0;     ///< completed in their send round
    std::uint64_t dropped_loss = 0;
    std::uint64_t dropped_congestion = 0;
  };
  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }

  // ---- introspection for tests ----
  [[nodiscard]] std::size_t rack_of(sim::NodeId pm) const noexcept {
    return pm / rack_size_;
  }
  [[nodiscard]] std::size_t rack_count() const noexcept {
    return uplink_backlog_.size();
  }
  [[nodiscard]] double access_backlog(sim::NodeId pm) const {
    return access_backlog_[pm];
  }
  [[nodiscard]] double uplink_backlog(std::size_t rack) const {
    return uplink_backlog_[rack];
  }
  [[nodiscard]] double access_bytes_per_round() const noexcept {
    return access_rate_ * kRoundSeconds;
  }
  [[nodiscard]] double uplink_bytes_per_round() const noexcept {
    return uplink_rate_ * kRoundSeconds;
  }

 private:
  /// A route is at most 4 links; index < pm_count = access link of that
  /// PM, index >= pm_count = uplink of rack (index - pm_count).
  struct Route {
    std::size_t links[4];
    std::size_t count = 0;
  };
  [[nodiscard]] Route route_between(sim::NodeId a, sim::NodeId b) const;
  [[nodiscard]] double& backlog_of(std::size_t link);
  [[nodiscard]] double rate_of(std::size_t link) const noexcept;
  [[nodiscard]] double limit_bytes_of(std::size_t link) const noexcept;
  /// Deterministic per-message uniform in [0, 1).
  [[nodiscard]] double loss_draw(std::uint64_t msg_id) const noexcept;
  void emit_send(sim::NodeId from, sim::NodeId to, std::uint64_t msg_id,
                 std::size_t bytes, Channel channel);
  void emit_deliver(sim::NodeId from, sim::NodeId to, std::uint64_t msg_id);
  void emit_drop(sim::NodeId from, sim::NodeId to, std::uint64_t msg_id,
                 DropReason reason);

  NetworkConfig config_;
  std::size_t pm_count_;
  std::size_t rack_size_;
  std::uint64_t seed_;

  double access_rate_;  ///< bytes per second per access link
  double uplink_rate_;  ///< bytes per second per ToR uplink

  std::vector<double> access_backlog_;  ///< queued bytes per PM link
  std::vector<double> uplink_backlog_;  ///< queued bytes per rack uplink

  std::uint64_t next_msg_id_ = 0;
  Totals totals_;

  metrics::MetricsRegistry* metrics_ = nullptr;
  trace::TraceLog* trace_ = nullptr;
  metrics::Counter* ctr_sends_ = nullptr;
  metrics::Counter* ctr_delivered_ = nullptr;
  metrics::Counter* ctr_dropped_loss_ = nullptr;
  metrics::Counter* ctr_dropped_congestion_ = nullptr;
};

}  // namespace glap::net
