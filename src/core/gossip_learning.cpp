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
    Telemetry telemetry, Resources pm_capacity, Rng rng,
    std::shared_ptr<Scratch> scratch)
    : dc_(dc),
      slots_(slots),
      telemetry_(telemetry),
      trainer_(config, pm_capacity, rng),
      scratch_(std::move(scratch)),
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
  const auto scratch = std::make_shared<Scratch>();
  return engine.add_protocol_pool<GossipLearningProtocol>(
      [&](sim::NodeId i, sim::Slot<GossipLearningProtocol> self) {
        return GossipLearningProtocol(
            config, dc, {overlay, self}, telemetry,
            dc.pm(static_cast<cloud::PmId>(i)).spec().capacity(),
            master.split(i), scratch);
      });
}

GossipLearningProtocol::Phase GossipLearningProtocol::phase() const noexcept {
  if (cycles_ < learning_rounds_) return Phase::kLearning;
  if (cycles_ < learning_rounds_ + aggregation_rounds_)
    return Phase::kAggregation;
  return Phase::kIdle;
}

void GossipLearningProtocol::execute(sim::Engine& engine, sim::NodeId self) {
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
  if (util.max_component() > kLearningUtilThreshold) return;

  auto& sampler = engine.protocol_at(slots_.overlay, self);
  std::vector<VmProfile>& pool = scratch_->pool;
  std::vector<VmProfile>& peer_profiles = scratch_->remote;
  profiles_of(dc_, static_cast<cloud::PmId>(self), &pool);
  if (const auto peer = sampler.sample_active_peer(engine, self)) {
    auto& remote = engine.protocol_at(slots_.self, *peer);
    remote.shared_profiles(*peer, &peer_profiles);
    // A lost fetch is simply skipped: train on the local pool.
    bool fetched = true;
    if (net::NetworkModel* net = engine.net_model())
      fetched = net->round_trip(self, *peer, kQEntryBytes,
                                peer_profiles.size() * kProfileBytes,
                                net::Channel::kLearning)
                    .ok();
    if (fetched) {
      engine.network().count_message(*peer, self,
                                     peer_profiles.size() * kProfileBytes);
      pool.insert(pool.end(), peer_profiles.begin(),
                  peer_profiles.end());
    }
  }
  trainer_.grow_pool(pool);
  trainer_.train_round(pool, tables_, scratch_->train);
  if (telemetry_.train_cycles != nullptr) telemetry_.train_cycles->inc();
}

void GossipLearningProtocol::aggregation_cycle(sim::Engine& engine,
                                               sim::NodeId self) {
  auto& sampler = engine.protocol_at(slots_.overlay, self);
  const auto peer = sampler.sample_active_peer(engine, self);
  if (!peer) return;

  auto& remote = engine.protocol_at(slots_.self, *peer);
  if (net::NetworkModel* net = engine.net_model();
      net != nullptr &&
      !net->round_trip(self, *peer, tables_.size() * kQEntryBytes,
                       remote.tables_.size() * kQEntryBytes,
                       net::Channel::kAggregation)
           .ok())
    return;  // lost on the wire: neither side merges this cycle

  engine.network().count_message(self, *peer, tables_.size() * kQEntryBytes);
  engine.network().count_message(*peer, self,
                                 remote.tables_.size() * kQEntryBytes);

  // Push-pull merge (Algorithm 2): both parties apply UPDATE and end up
  // with the identical averaged/unioned table, so the partner shares the
  // merged blocks instead of computing or copying them.
  tables_.merge_average(remote.tables_);
  remote.tables_ = tables_;
  if (telemetry_.merges != nullptr) telemetry_.merges->inc();
  // The push-pull rewrote the peer's tables: that is incoming gossip for
  // a parked peer, so re-activate it (no-op unless quiescent).
  engine.wake(*peer, sim::WakeReason::kGossip);
}

}  // namespace glap::core
