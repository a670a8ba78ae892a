// Deterministic message-level network model for the gossip substrate
// (DESIGN.md §13). Models the two-tier datacenter fabric the rack
// topology implies: every PM hangs off one access link, racks share an
// oversubscribed top-of-rack uplink, and the core is non-blocking. An
// exchange sent in round r is delivered in round r + floor(latency /
// round_seconds) — 0 at healthy defaults, which reproduces the ideal
// instantaneous model — or dropped, either by the configured random loss
// rate or because a link's drop-tail queue is full. Live migrations are
// charged to the same links (DataCenter's migration-network hook), so a
// migration storm inflates queueing delay for — and can congestion-drop —
// the gossip that scheduled it.
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
/// zero queueing and sub-round latency, i.e. the modeled network is
/// behaviorally identical to the ideal one until loss or contention bite.
struct NetworkConfig {
  bool enabled = false;
  /// Access-link bandwidth per PM (both directions share one queue).
  double access_gbps = 1.0;
  /// Propagation + switching latency per access hop (seconds).
  double access_latency_s = 50e-6;
  /// Extra latency for crossing the core between two ToR uplinks (seconds).
  double uplink_latency_s = 450e-6;
  /// ToR uplink capacity = access_gbps * rack_size / oversubscription.
  double oversubscription = 4.0;
  /// Drop-tail queue limit per link, as a fraction of one round's service
  /// capacity: a message that would push a link's backlog past
  /// queue_limit_rounds * bytes_per_round is dropped as congested.
  double queue_limit_rounds = 0.25;
  /// Probability that one leg of an exchange is lost (per-message
  /// counter-hash, not an RNG stream). A push-pull round trip has two
  /// legs, so its loss probability is 1 - (1 - loss_rate)^2.
  double loss_rate = 0.0;
  /// Rack width used when the experiment runs without a rack topology
  /// (rack_size == 0); with a topology the harness passes its rack_size.
  std::size_t default_rack_size = 32;
  /// Charge live-migration payloads (VM memory) to the same links, so
  /// migrations stretch their own τ and delay/drown gossip.
  bool migration_contention = true;
};

/// Traffic classes; rendered into "net" trace events by name.
enum class Channel : std::uint8_t {
  kShuffle = 0,       ///< overlay membership (Cyclon/Newscast)
  kLearning = 1,      ///< GLAP workload-profile fetch
  kAggregation = 2,   ///< GLAP Q-table push-pull
  kConsolidation = 3, ///< GLAP/GRMP state exchange
  kProbe = 4,         ///< EcoCloud placement probes
  kMigration = 5,     ///< live-migration payload (pre-copy stream)
};

[[nodiscard]] const char* channel_name(Channel c) noexcept;

/// Why a message was dropped; rendered into "net" drop events by name.
enum class DropReason : std::uint8_t { kNone = 0, kLoss = 1, kCongestion = 2 };

[[nodiscard]] const char* drop_reason_name(DropReason r) noexcept;

/// Admission decision for one exchange.
struct Verdict {
  enum class Outcome : std::uint8_t { kDelivered, kDelayed, kDropped };
  Outcome outcome = Outcome::kDelivered;
  /// Rounds until the reply is in hand (kDelayed only; >= 1).
  sim::Round delay = 0;
  DropReason reason = DropReason::kNone;
  std::uint64_t msg_id = 0;
  [[nodiscard]] bool ok() const noexcept {
    return outcome == Outcome::kDelivered;
  }
};

class NetworkModel {
 public:
  /// `rack_size` groups consecutive PM ids exactly like cloud::RackTopology.
  NetworkModel(std::size_t pm_count, std::size_t rack_size,
               const NetworkConfig& config, double round_seconds,
               std::uint64_t seed);

  /// Observability sinks (neither owned; either may be null). Attach
  /// before the first round; "net" trace events are buffered through the
  /// ordered TraceLog path so they are safe from inside interactions.
  void set_telemetry(metrics::MetricsRegistry* metrics,
                     trace::TraceLog* trace);

  /// Advances simulated time: drains one round of service capacity from
  /// every link backlog. The harness calls this once per round, before
  /// Engine::step(), for warmup and evaluation rounds alike.
  void begin_round(sim::Round round);

  /// Admits one push-pull exchange (request `fwd_bytes` from a to b, reply
  /// `rev_bytes` back). Charges both legs to the route on success.
  Verdict round_trip(sim::NodeId a, sim::NodeId b, std::size_t fwd_bytes,
                     std::size_t rev_bytes, Channel channel);

  /// Admits a one-way datagram (single loss leg, same queueing rules).
  Verdict send(sim::NodeId from, sim::NodeId to, std::size_t bytes,
               Channel channel);

  /// Completion report for an exchange a protocol deferred: emits the
  /// "deliver" trace event at the due round and counts the delivery.
  /// Call from the deferred execute(), never twice per msg_id.
  void deliver_deferred(sim::NodeId from, sim::NodeId to,
                        std::uint64_t msg_id, sim::Round delay);

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
    std::uint64_t delivered = 0;     ///< completed (incl. deferred)
    std::uint64_t delayed = 0;       ///< admitted with delay >= 1 round
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
    return access_rate_ * round_seconds_;
  }
  [[nodiscard]] double uplink_bytes_per_round() const noexcept {
    return uplink_rate_ * round_seconds_;
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
  Verdict admit(sim::NodeId from, sim::NodeId to, std::size_t fwd_bytes,
                std::size_t rev_bytes, Channel channel, double loss_prob,
                double base_latency_extra);
  void emit_send(sim::NodeId from, sim::NodeId to, std::uint64_t msg_id,
                 std::size_t bytes, Channel channel);
  void emit_deliver(sim::NodeId from, sim::NodeId to, std::uint64_t msg_id,
                    sim::Round delay);
  void emit_drop(sim::NodeId from, sim::NodeId to, std::uint64_t msg_id,
                 DropReason reason);

  NetworkConfig config_;
  std::size_t pm_count_;
  std::size_t rack_size_;
  double round_seconds_;
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
  metrics::Counter* ctr_delayed_ = nullptr;
  metrics::Counter* ctr_dropped_loss_ = nullptr;
  metrics::Counter* ctr_dropped_congestion_ = nullptr;
};

}  // namespace glap::net
