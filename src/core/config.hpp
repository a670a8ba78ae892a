// GLAP configuration knobs, with defaults matching the paper's evaluation.
#pragma once

#include "sim/node.hpp"

namespace glap::core {

/// Quiescence: when enabled, a PM whose protocols unanimously report
/// convergence is parked and skipped until a wake event (incoming gossip
/// write, demand drift past `demand_epsilon`, migration arrival/departure,
/// power transition, relearn trigger) re-activates it. Enabling it changes
/// the simulated trajectory — that skipped work is exactly the
/// scalability payoff.
///
/// Lives in core (not harness) because the convergence vote is GLAP's:
/// the consolidation component parks on Q-table similarity, the learning
/// component on reaching its idle phase. Baseline protocols never vote to
/// park; overlays always do.
struct QuiescenceConfig {
  bool enabled = false;
  /// Partner-table cosine similarity at or above which the consolidation
  /// component counts its Q-tables as converged.
  double similarity_threshold = 0.999;
  /// Consecutive migration-free consolidation exchanges before the
  /// component votes to park (0 = never vote).
  sim::Round idle_rounds = 8;
  /// |Δ demand fraction| (either resource, vs the last-notified
  /// reference) beyond which a hosted VM's drift re-activates its PM.
  double demand_epsilon = 0.05;
};

struct GlapConfig {
  /// Engine-level quiescence policy (see QuiescenceConfig). The harness
  /// reads enabled/demand_epsilon; the consolidation component reads
  /// similarity_threshold/idle_rounds for its vote.
  QuiescenceConfig quiescence;

  /// Two-phase pre-run. The paper reserves 700 extra rounds before the
  /// evaluation window; learning saturates far sooner and gossip
  /// averaging converges in O(log N) rounds, so the defaults train for
  /// 150 rounds and aggregate for 60, then idle out the warmup.
  sim::Round learning_rounds = 150;
  sim::Round aggregation_rounds = 60;
  /// Consolidation stays inactive until this many rounds have elapsed
  /// (aligned with the experiment's warmup so GLAP and the baselines
  /// start consolidating at the same instant). Must be at least
  /// learning_rounds + aggregation_rounds.
  sim::Round consolidation_start_round = 700;

  /// Ablation: when false, states/actions use current demands only (the
  /// naive scheme §IV-B argues against) instead of the average/current
  /// split.
  bool use_average_state = true;

  /// Topology awareness (paper future work): when a RackTopology is
  /// installed, the consolidation component samples a same-rack gossip
  /// partner with this probability (falling back to the overlay) and
  /// drains the PM of the emptier *rack* first, so whole racks — and
  /// their switches — power down. 0 keeps vanilla GLAP behaviour.
  double rack_affinity = 0.0;
};

}  // namespace glap::core
