#include "core/consolidation.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "net/network_model.hpp"

namespace glap::core {

namespace {
constexpr std::size_t kStateMsgBytes = 32;  // (cpu, mem) current + average
}

GlapConsolidationProtocol::GlapConsolidationProtocol(
    const GlapConfig& config, cloud::DataCenter& dc, Slots slots,
    Telemetry telemetry, const cloud::RackTopology* topology, Rng rng,
    std::shared_ptr<Scratch> scratch)
    : config_(config),
      dc_(dc),
      slots_(slots),
      telemetry_(telemetry),
      topology_(topology),
      rng_(rng),
      scratch_(std::move(scratch)) {
  GLAP_REQUIRE(config.rack_affinity >= 0.0 && config.rack_affinity <= 1.0,
               "rack_affinity out of [0,1]");
}

sim::Slot<GlapConsolidationProtocol> GlapConsolidationProtocol::install(
    sim::Engine& engine, const GlapConfig& config, cloud::DataCenter& dc,
    Slots slots, std::uint64_t seed, const cloud::RackTopology* topology) {
  GLAP_REQUIRE(engine.node_count() == dc.pm_count(),
               "engine nodes must map 1:1 onto data-center PMs");
  Telemetry telemetry;
  if (metrics::MetricsRegistry* m = engine.metrics())
    telemetry = {m->counter("consolidation.exchanges"),
                 m->counter("consolidation.pi_in_rejects"),
                 m->counter("consolidation.capacity_rejects"),
                 m->counter("consolidation.switch_offs")};
  Rng master(hash_combine(seed, hash_tag("glap-consolidation")));
  const auto scratch = std::make_shared<Scratch>();
  return engine.add_protocol_pool<GlapConsolidationProtocol>(
      [&](sim::NodeId i, sim::Slot<GlapConsolidationProtocol> /*self*/) {
        return GlapConsolidationProtocol(config, dc, slots, telemetry,
                                         topology, master.split(i), scratch);
      });
}

std::optional<sim::NodeId> GlapConsolidationProtocol::sample_peer(
    sim::Engine& engine, sim::NodeId self) {
  if (topology_ && config_.rack_affinity > 0.0 &&
      rng_.bernoulli(config_.rack_affinity)) {
    const auto rack = topology_->rack_of(static_cast<cloud::PmId>(self));
    const auto ids = topology_->members(rack);
    std::vector<cloud::PmId>& members = scratch_->rack;
    members.assign(ids.begin(), ids.end());
    rng_.shuffle(members);
    for (cloud::PmId peer : members) {
      if (peer == static_cast<cloud::PmId>(self)) continue;
      if (engine.is_active(static_cast<sim::NodeId>(peer)))
        return static_cast<sim::NodeId>(peer);
    }
    // Whole rack asleep or solitary: fall through to the overlay.
  }
  return engine.protocol_at(slots_.overlay, self)
      .sample_active_peer(engine, self);
}

qlearn::State GlapConsolidationProtocol::pm_state(cloud::PmId pm) const {
  const Resources util = config_.use_average_state
                             ? dc_.average_utilization(pm)
                             : dc_.current_utilization(pm);
  return qlearn::classify(util.cpu, util.mem);
}

void GlapConsolidationProtocol::execute(sim::Engine& engine,
                                        sim::NodeId self) {
  // The learning component feeds this one: consolidation pauses until the
  // two-phase learning pre-run has produced unified Q-values and the
  // configured start round (the experiment's warmup) has passed. A
  // mid-run relearn does not pause it: it keeps using the previous
  // Q-values (the paper's "continue using the previous Q-values").
  const sim::Round cycle = cycles_++;
  if (cycle < config_.consolidation_start_round) return;

  const auto peer = sample_peer(engine, self);
  if (!peer) {
    // No active partner: an interaction-free round still counts toward
    // the calm streak (a drained neighborhood is the converged state).
    ++calm_rounds_;
    return;
  }

  if (net::NetworkModel* net = engine.net_model();
      net != nullptr &&
      !net->round_trip(self, *peer, kStateMsgBytes, kStateMsgBytes,
                       net::Channel::kConsolidation)
           .ok())
    return;  // no reply, no evidence: the calm streak does not advance

  // Push-pull state exchange (Algorithm 3, lines 1-10).
  engine.network().count_message(self, *peer, kStateMsgBytes);
  engine.network().count_message(*peer, self, kStateMsgBytes);
  ++stats_.exchanges;
  if (telemetry_.exchanges != nullptr) telemetry_.exchanges->inc();

  const std::size_t moved = update_state(
      engine, static_cast<cloud::PmId>(self), static_cast<cloud::PmId>(*peer));
  if (moved > 0) {
    calm_rounds_ = 0;
    return;
  }
  ++calm_rounds_;
  const QuiescenceConfig& quiesce = config_.quiescence;
  if (engine.quiescence_enabled() && quiesce.idle_rounds > 0 &&
      calm_rounds_ >= quiesce.idle_rounds) {
    // Candidate to park: measure convergence against this exchange's
    // partner. Deferring the cosine scan to the calm tail keeps the
    // O(|table|) cost off every non-candidate round; only can_quiesce
    // reads it, and the engine polls that only with quiescence on.
    auto& mine = engine.protocol_at(slots_.learning, self);
    auto& theirs = engine.protocol_at(slots_.learning, *peer);
    last_similarity_ = cosine_similarity(mine.tables(), theirs.tables());
  }
}

bool GlapConsolidationProtocol::can_quiesce(const sim::Engine& /*engine*/,
                                            sim::NodeId /*self*/) const {
  const QuiescenceConfig& quiesce = config_.quiescence;
  if (quiesce.idle_rounds == 0) return false;
  if (cycles_ <= config_.consolidation_start_round) return false;
  return calm_rounds_ >= quiesce.idle_rounds &&
         last_similarity_ >= quiesce.similarity_threshold;
}

std::size_t GlapConsolidationProtocol::update_state(sim::Engine& engine,
                                                    cloud::PmId p,
                                                    cloud::PmId q) {
  // Overload relief takes priority (lines 12-13); since the interaction is
  // push-pull, an overloaded passive party sheds symmetrically.
  if (dc_.overloaded(p)) return migrate_loop(engine, p, q, Mode::kShedOverload);
  if (dc_.overloaded(q)) return migrate_loop(engine, q, p, Mode::kShedOverload);

  // Otherwise the less-utilized PM drains toward switch-off (lines 14-16).
  // Rack-aware variant: across racks, the PM of the *emptier rack* drains
  // first so whole racks (and their switches) can power down.
  double up = dc_.average_utilization(p).sum();
  double uq = dc_.average_utilization(q).sum();
  if (topology_ && config_.rack_affinity > 0.0) {
    const auto rack_p = topology_->rack_of(p);
    const auto rack_q = topology_->rack_of(q);
    if (rack_p != rack_q) {
      up = topology_->rack_load(dc_, rack_p);
      uq = topology_->rack_load(dc_, rack_q);
    }
  }
  const cloud::PmId sender = up <= uq ? p : q;
  const cloud::PmId recipient = up <= uq ? q : p;
  const std::size_t moved =
      migrate_loop(engine, sender, recipient, Mode::kDrainToSleep);

  if (dc_.pm(sender).empty()) {
    dc_.set_power(sender, cloud::PmPower::kSleep);
    engine.set_status(static_cast<sim::NodeId>(sender),
                      sim::NodeStatus::kSleeping);
    ++stats_.switch_offs;
    if (telemetry_.switch_offs != nullptr) telemetry_.switch_offs->inc();
  }
  return moved;
}

std::optional<std::pair<cloud::VmId, qlearn::Action>>
GlapConsolidationProtocol::find_vm(const qlearn::QTable& out_table,
                                   qlearn::State sender_state,
                                   cloud::PmId sender) {
  const auto& vms = dc_.pm(sender).vms();
  if (vms.empty()) return std::nullopt;

  // π_out: the available action with the greatest Q_out(s, ·).
  std::vector<qlearn::Action>& actions = scratch_->actions;
  actions.clear();
  actions.reserve(vms.size());
  for (cloud::VmId v : vms) {
    const Resources frac = config_.use_average_state
                               ? dc_.vm_average_fraction(v)
                               : dc_.vm_demand_fraction(v);
    actions.push_back(qlearn::classify(frac.cpu, frac.mem));
  }
  const auto best = out_table.best_action(sender_state, actions);
  if (!best) return std::nullopt;

  // Among VMs matching the chosen action, pick the least migration cost
  // (smallest current memory footprint — memory drives τ).
  std::optional<cloud::VmId> chosen;
  double chosen_mem = 0.0;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    if (!(actions[i] == *best)) continue;
    const double mem = dc_.vm_current_usage(vms[i]).mem;
    if (!chosen || mem < chosen_mem) {
      chosen = vms[i];
      chosen_mem = mem;
    }
  }
  GLAP_ASSERT(chosen.has_value(), "best_action returned unavailable action");
  return std::make_pair(*chosen, *best);
}

std::size_t GlapConsolidationProtocol::migrate_loop(sim::Engine& engine,
                                                    cloud::PmId sender,
                                                    cloud::PmId recipient,
                                                    Mode mode) {
  auto& learning =
      engine.protocol_at(slots_.learning, static_cast<sim::NodeId>(sender));
  const QTablePair& tables = learning.tables();

  std::size_t moved = 0;
  const std::size_t cap = dc_.pm(sender).vm_count();
  for (std::size_t attempt = 0; attempt < cap; ++attempt) {
    const bool keep_going = mode == Mode::kShedOverload
                                ? dc_.overloaded(sender)
                                : !dc_.pm(sender).empty();
    if (!keep_going) break;

    const auto pick = find_vm(tables.out, pm_state(sender), sender);
    if (!pick) {
      ++stats_.no_vm_available;
      break;
    }
    const auto [vm, action] = *pick;

    // π_in evaluated on the sender's copy of the (unified) IN table.
    if (tables.in.value(pm_state(recipient), action) < 0.0) {
      ++stats_.rejected_by_pi_in;
      if (telemetry_.pi_in_rejects != nullptr) telemetry_.pi_in_rejects->inc();
      break;
    }
    if (!dc_.can_host(recipient, vm)) {
      ++stats_.rejected_by_capacity;
      if (telemetry_.capacity_rejects != nullptr)
        telemetry_.capacity_rejects->inc();
      break;
    }

    dc_.migrate(vm, recipient);
    engine.network().count_message(static_cast<sim::NodeId>(sender),
                                   static_cast<sim::NodeId>(recipient),
                                   kStateMsgBytes);
    ++stats_.migrations;
    ++moved;
  }
  return moved;
}

}  // namespace glap::core
