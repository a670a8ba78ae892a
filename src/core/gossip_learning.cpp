#include "core/gossip_learning.hpp"

#include "common/metrics.hpp"
#include "net/network_model.hpp"

namespace glap::core {

namespace {
constexpr std::size_t kQEntryBytes = 12;       // key + value on the wire
constexpr std::size_t kProfileBytes = 48;      // one VM profile on the wire
}

GossipLearningProtocol::GossipLearningProtocol(
    const GlapConfig& config, cloud::DataCenter& dc, Slots slots,
    Telemetry telemetry, Resources pm_capacity, Rng rng)
    : config_(config),
      dc_(dc),
      slots_(slots),
      telemetry_(telemetry),
      trainer_(config, pm_capacity, rng),
      learning_rounds_(config.learning_rounds),
      aggregation_rounds_(config.aggregation_rounds) {}

void GossipLearningProtocol::retrigger(sim::Round learning_rounds,
                                       sim::Round aggregation_rounds) {
  cycles_ = 0;
  learning_rounds_ = learning_rounds;
  aggregation_rounds_ = aggregation_rounds;
}

sim::Slot<GossipLearningProtocol> GossipLearningProtocol::install(
    sim::Engine& engine, const GlapConfig& config, cloud::DataCenter& dc,
    sim::Slot<overlay::NeighborProvider> overlay, std::uint64_t seed) {
  GLAP_REQUIRE(engine.node_count() == dc.pm_count(),
               "engine nodes must map 1:1 onto data-center PMs");
  Telemetry telemetry;
  if (metrics::MetricsRegistry* m = engine.metrics())
    telemetry = {m->counter("learning.train_cycles"),
                 m->counter("learning.merges")};
  Rng master(hash_combine(seed, hash_tag("gossip-learning")));
  return engine.add_protocol_pool<GossipLearningProtocol>(
      [&](sim::NodeId i, sim::Slot<GossipLearningProtocol> self) {
        return GossipLearningProtocol(
            config, dc, {overlay, self}, telemetry,
            dc.pm(static_cast<cloud::PmId>(i)).spec().capacity(),
            master.split(i));
      });
}

GossipLearningProtocol::Phase GossipLearningProtocol::phase() const noexcept {
  if (cycles_ < learning_rounds_) return Phase::kLearning;
  if (cycles_ < learning_rounds_ + aggregation_rounds_)
    return Phase::kAggregation;
  return Phase::kIdle;
}

void GossipLearningProtocol::execute(sim::Engine& engine, sim::NodeId self) {
  // A deferred push-pull comes due before anything else this round; its
  // reply was on the wire, so it completes even if the phase has since
  // advanced (the merge is idempotent knowledge transfer).
  if (pending_.active && engine.current_round() >= pending_.due) {
    complete_pending(engine, self);
    ++cycles_;
    return;
  }
  const Phase current = phase();
  ++cycles_;
  switch (current) {
    case Phase::kLearning:
      learning_cycle(engine, self);
      break;
    case Phase::kAggregation:
      aggregation_cycle(engine, self);
      break;
    case Phase::kIdle:
      break;
  }
}

void GossipLearningProtocol::learning_cycle(sim::Engine& engine,
                                            sim::NodeId self) {
  // Only lightly loaded PMs train, to avoid disturbing collocated VMs
  // (paper: PMs with ≥50% free CPU run the algorithm locally).
  const Resources util =
      dc_.average_utilization(static_cast<cloud::PmId>(self));
  if (util.max_component() > config_.learning_util_threshold) return;

  auto& sampler = engine.protocol_at(slots_.overlay, self);
  profiles_of(dc_, static_cast<cloud::PmId>(self), &scratch_pool_);
  if (const auto peer = sampler.sample_active_peer(engine, self)) {
    auto& remote = engine.protocol_at(slots_.self, *peer);
    remote.shared_profiles(*peer, &scratch_remote_);
    // Profile freshness matters (they feed this round's training batch),
    // so a lost or late fetch is simply skipped: train on the local pool.
    bool fetched = true;
    if (net::NetworkModel* net = engine.net_model())
      fetched = net->round_trip(self, *peer, kQEntryBytes,
                                scratch_remote_.size() * kProfileBytes,
                                net::Channel::kLearning)
                    .ok();
    if (fetched) {
      engine.network().count_message(*peer, self,
                                     scratch_remote_.size() * kProfileBytes);
      scratch_pool_.insert(scratch_pool_.end(), scratch_remote_.begin(),
                           scratch_remote_.end());
    }
  }
  trainer_.grow_pool(scratch_pool_);
  trainer_.train_round(scratch_pool_, tables_);
  if (telemetry_.train_cycles != nullptr) telemetry_.train_cycles->inc();
}

void GossipLearningProtocol::aggregation_cycle(sim::Engine& engine,
                                               sim::NodeId self) {
  auto& sampler = engine.protocol_at(slots_.overlay, self);
  const auto peer = sampler.sample_active_peer(engine, self);
  if (!peer) return;
  auto& remote = engine.protocol_at(slots_.self, *peer);

  if (net::NetworkModel* net = engine.net_model()) {
    const net::Verdict verdict = net->round_trip(
        self, *peer, tables_.size() * kQEntryBytes,
        remote.tables_.size() * kQEntryBytes, net::Channel::kAggregation);
    if (verdict.outcome == net::Verdict::Outcome::kDropped)
      return;  // lost on the wire: neither side merges this cycle
    if (verdict.outcome == net::Verdict::Outcome::kDelayed) {
      // The reply is in flight; merge when it lands (DESIGN.md §13.4).
      pending_ = {true, *peer, engine.current_round() + verdict.delay,
                  verdict.msg_id, verdict.delay};
      engine.schedule_wake(self, pending_.due, sim::WakeReason::kNetwork);
      return;
    }
  }

  engine.network().count_message(self, *peer,
                                 tables_.size() * kQEntryBytes);
  engine.network().count_message(*peer, self,
                                 remote.tables_.size() * kQEntryBytes);

  // Push-pull merge (Algorithm 2): both parties apply UPDATE and end up
  // with the identical averaged/unioned table. Merging in place and
  // copying once beats building a third table.
  tables_.merge_average(remote.tables_);
  remote.tables_ = tables_;
  if (telemetry_.merges != nullptr) telemetry_.merges->inc();
  // The push-pull rewrote the peer's tables: that is incoming gossip for
  // a parked peer, so re-activate it (no-op unless quiescent).
  engine.wake(*peer, sim::WakeReason::kGossip);
}

void GossipLearningProtocol::complete_pending(sim::Engine& engine,
                                              sim::NodeId self) {
  const PendingExchange pending = pending_;
  pending_ = {};
  net::NetworkModel* net = engine.net_model();
  GLAP_ASSERT(net != nullptr, "pending exchange without a network model");
  // Report the actual rounds-in-flight: a node that slept past its due
  // round picks the reply up late, and the trace must say so (the checker
  // pins deliver.round == send.round + delay).
  const sim::Round send_round = pending.due - pending.delay;
  net->deliver_deferred(self, pending.partner, pending.msg_id,
                        engine.current_round() - send_round);
  // The merge uses delivery-time state: tables on both sides may have
  // moved since the send — exactly the staleness a slow network causes.
  auto& remote = engine.protocol_at(slots_.self, pending.partner);
  engine.network().count_message(self, pending.partner,
                                 tables_.size() * kQEntryBytes);
  engine.network().count_message(pending.partner, self,
                                 remote.tables_.size() * kQEntryBytes);
  tables_.merge_average(remote.tables_);
  remote.tables_ = tables_;
  if (telemetry_.merges != nullptr) telemetry_.merges->inc();
  engine.wake(pending.partner, sim::WakeReason::kGossip);
}

}  // namespace glap::core
