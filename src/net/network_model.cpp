#include "net/network_model.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "common/tracing.hpp"

namespace glap::net {

namespace {
/// Rack width used when the experiment runs without a rack topology.
constexpr std::size_t kDefaultRackSize = 32;
}  // namespace

NetworkModel::NetworkModel(std::size_t pm_count, std::size_t rack_size,
                           const NetworkConfig& config, std::uint64_t seed)
    : config_(config),
      pm_count_(pm_count),
      rack_size_(rack_size > 0 ? rack_size : kDefaultRackSize),
      seed_(hash_combine(seed, hash_tag("net-model"))) {
  GLAP_REQUIRE(pm_count > 0, "network model needs at least one PM");
  GLAP_REQUIRE(config.access_gbps > 0.0, "access_gbps must be positive");
  GLAP_REQUIRE(config.loss_rate >= 0.0 && config.loss_rate < 1.0,
               "loss_rate out of [0, 1)");
  access_rate_ = config.access_gbps * 1e9 / 8.0;
  uplink_rate_ = access_rate_ * static_cast<double>(rack_size_) /
                 kOversubscription;
  access_backlog_.assign(pm_count_, 0.0);
  uplink_backlog_.assign((pm_count_ + rack_size_ - 1) / rack_size_, 0.0);
}

void NetworkModel::set_telemetry(metrics::MetricsRegistry* metrics,
                                 trace::TraceLog* trace) {
  metrics_ = metrics;
  trace_ = trace;
  if (metrics_ != nullptr) {
    ctr_sends_ = metrics_->counter("netmodel.sends");
    ctr_delivered_ = metrics_->counter("netmodel.delivered");
    ctr_dropped_loss_ = metrics_->counter("netmodel.dropped_loss");
    ctr_dropped_congestion_ = metrics_->counter("netmodel.dropped_congestion");
  }
}

void NetworkModel::begin_round(sim::Round /*round*/) {
  const double access_service = access_bytes_per_round();
  for (double& b : access_backlog_) b = std::max(0.0, b - access_service);
  const double uplink_service = uplink_bytes_per_round();
  for (double& b : uplink_backlog_) b = std::max(0.0, b - uplink_service);
}

NetworkModel::Route NetworkModel::route_between(sim::NodeId a,
                                                sim::NodeId b) const {
  GLAP_DEBUG_ASSERT(a < pm_count_ && b < pm_count_, "PM id out of range");
  Route r;
  r.links[r.count++] = a;  // access link of the initiator
  const std::size_t rack_a = rack_of(a);
  const std::size_t rack_b = rack_of(b);
  if (rack_a != rack_b) {
    r.links[r.count++] = pm_count_ + rack_a;
    r.links[r.count++] = pm_count_ + rack_b;
  }
  r.links[r.count++] = b;  // access link of the responder
  return r;
}

double& NetworkModel::backlog_of(std::size_t link) {
  return link < pm_count_ ? access_backlog_[link]
                          : uplink_backlog_[link - pm_count_];
}

double NetworkModel::rate_of(std::size_t link) const noexcept {
  return link < pm_count_ ? access_rate_ : uplink_rate_;
}

double NetworkModel::limit_bytes_of(std::size_t link) const noexcept {
  return kQueueLimitRounds * rate_of(link) * kRoundSeconds;
}

double NetworkModel::loss_draw(std::uint64_t msg_id) const noexcept {
  // Counter-based: no stream state, so admission order cannot perturb
  // other randomness and equal msg ids always draw the same value.
  const std::uint64_t h = hash_combine(seed_, msg_id);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void NetworkModel::emit_send(sim::NodeId from, sim::NodeId to,
                             std::uint64_t msg_id, std::size_t bytes,
                             Channel channel) {
  if (trace_ != nullptr)
    trace_->emit(trace::Net{.op = trace::NetOp::kSend,
                            .src = from,
                            .dst = to,
                            .msg = static_cast<std::int64_t>(msg_id),
                            .bytes = static_cast<std::int64_t>(bytes),
                            .channel = channel});
}

void NetworkModel::emit_deliver(sim::NodeId from, sim::NodeId to,
                                std::uint64_t msg_id) {
  // Every delivery lands in its send round; the schema's delay field
  // stays (always 0) so the trace wire formats keep their layout.
  if (trace_ != nullptr)
    trace_->emit(trace::Net{.op = trace::NetOp::kDeliver,
                            .src = from,
                            .dst = to,
                            .msg = static_cast<std::int64_t>(msg_id)});
}

void NetworkModel::emit_drop(sim::NodeId from, sim::NodeId to,
                             std::uint64_t msg_id, DropReason reason) {
  if (trace_ != nullptr)
    trace_->emit(trace::Net{.op = trace::NetOp::kDrop,
                            .src = from,
                            .dst = to,
                            .msg = static_cast<std::int64_t>(msg_id),
                            .reason = reason});
}

Verdict NetworkModel::round_trip(sim::NodeId from, sim::NodeId to,
                                 std::size_t fwd_bytes, std::size_t rev_bytes,
                                 Channel channel) {
  GLAP_REQUIRE(from != to, "round trip to self");
  Verdict v;
  v.msg_id = next_msg_id_++;
  ++totals_.sends;
  if (ctr_sends_ != nullptr) ctr_sends_->inc();
  emit_send(from, to, v.msg_id, fwd_bytes + rev_bytes, channel);

  const Route route = route_between(from, to);
  const double payload = static_cast<double>(fwd_bytes + rev_bytes);

  // Drop-tail admission: a full link rejects the whole exchange and keeps
  // its queue unchanged.
  for (std::size_t i = 0; i < route.count; ++i) {
    if (backlog_of(route.links[i]) + payload > limit_bytes_of(route.links[i])) {
      v.reason = DropReason::kCongestion;
      ++totals_.dropped_congestion;
      if (ctr_dropped_congestion_ != nullptr) ctr_dropped_congestion_->inc();
      emit_drop(from, to, v.msg_id, v.reason);
      return v;
    }
  }

  // Two independent loss legs collapse into one draw with the combined
  // probability — the initiator cannot distinguish which leg vanished.
  const double p = config_.loss_rate;
  const double loss_prob = 1.0 - (1.0 - p) * (1.0 - p);
  if (loss_prob > 0.0 && loss_draw(v.msg_id) < loss_prob) {
    v.reason = DropReason::kLoss;
    ++totals_.dropped_loss;
    if (ctr_dropped_loss_ != nullptr) ctr_dropped_loss_->inc();
    emit_drop(from, to, v.msg_id, v.reason);
    return v;
  }

  // Admitted: the backlog ahead plus this payload fits under a fraction
  // of a round on every link (kQueueLimitRounds < 1), so the reply is in
  // hand before the round ends.
  for (std::size_t i = 0; i < route.count; ++i)
    backlog_of(route.links[i]) += payload;
  ++totals_.delivered;
  if (ctr_delivered_ != nullptr) ctr_delivered_->inc();
  emit_deliver(from, to, v.msg_id);
  return v;
}

double NetworkModel::migration_delay_seconds(sim::NodeId from, sim::NodeId to,
                                             double mem_mb) {
  if (!config_.migration_contention || from == to) return 0.0;
  const double bytes = std::max(0.0, mem_mb) * 1e6;
  const Route route = route_between(from, to);
  // The pre-copy stream waits for whatever is already queued on the
  // slowest link of its route, then adds itself to every link's queue.
  double queue_ahead = 0.0;
  for (std::size_t i = 0; i < route.count; ++i)
    queue_ahead = std::max(
        queue_ahead, backlog_of(route.links[i]) / rate_of(route.links[i]));
  for (std::size_t i = 0; i < route.count; ++i)
    backlog_of(route.links[i]) += bytes;
  const std::uint64_t msg_id = next_msg_id_++;
  ++totals_.sends;
  ++totals_.delivered;
  if (ctr_sends_ != nullptr) ctr_sends_->inc();
  if (ctr_delivered_ != nullptr) ctr_delivered_->inc();
  emit_send(from, to, msg_id, static_cast<std::size_t>(bytes),
            Channel::kMigration);
  // The pre-copy stream starts transferring immediately; its queueing
  // stretch is reported through the migration's τ, not here.
  emit_deliver(from, to, msg_id);
  return queue_ahead;
}

void NetworkModel::trace_queue_depths(sim::Round round) {
  if (trace_ == nullptr) return;
  const auto queue = [&](trace::Link link, std::size_t id, double backlog) {
    if (backlog > 0.0)
      trace_->write(round, trace::Net{.op = trace::NetOp::kQueue,
                                      .link = link,
                                      .link_id = static_cast<std::int64_t>(id),
                                      .bytes = static_cast<std::int64_t>(
                                          backlog)});
  };
  for (std::size_t p = 0; p < access_backlog_.size(); ++p)
    queue(trace::Link::kAccess, p, access_backlog_[p]);
  for (std::size_t r = 0; r < uplink_backlog_.size(); ++r)
    queue(trace::Link::kUplink, r, uplink_backlog_[r]);
}

}  // namespace glap::net
