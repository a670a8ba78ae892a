// GLAP configuration knobs, with defaults matching the paper's evaluation.
#pragma once

#include <cstddef>

#include "qlearn/qtable.hpp"
#include "sim/node.hpp"

namespace glap::core {

/// Per-level reward parameters (paper §IV-A, "Reward (R)").
///
/// Reward OUT: every level earns a positive reward, strictly decreasing
/// with utilization (r_L > r_M > … > r_O > 0) — transitions toward
/// emptiness pay more, pushing senders to drain quickly.
///
/// Reward IN: positive and increasing toward (but not including) Overload
/// — recipients should be "avaricious" — with a strongly negative reward
/// for landing in Overload (r_O ≪ 0).
struct RewardParams {
  double out_base = 9.0;    ///< reward of Low for OUT; decreases by out_step
  double out_step = 1.0;    ///< per-level decrement (keeps r_O > 0)
  double in_base = 1.0;     ///< reward of Low for IN; increases by in_step
  double in_step = 1.0;     ///< per-level increment up to 5xHigh
  double in_overload = -300.0;  ///< r_O for IN (≪ 0)
};

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
  /// Optional heartbeat: re-wake every parked PM after this many rounds
  /// (0 = no heartbeat; migrations/demand/gossip still wake).
  sim::Round recheck_rounds = 0;
};

struct GlapConfig {
  qlearn::QLearningParams q{.alpha = 0.5, .gamma = 0.8};
  RewardParams rewards;

  /// Engine-level quiescence policy (see QuiescenceConfig). The harness
  /// reads enabled/demand_epsilon/recheck_rounds; the consolidation
  /// component reads similarity_threshold/idle_rounds for its vote.
  QuiescenceConfig quiescence;

  /// Learning phase: only PMs with average utilization at or below this
  /// run local training (the evaluation uses PMs with ≥50% free CPU).
  double learning_util_threshold = 0.5;
  /// k — simulated sender/target consolidation steps per learning round.
  std::size_t train_iterations_per_round = 24;
  /// Duplicate the collected profile pool until its aggregate average CPU
  /// could fill this many PMs (covers highly loaded states, §IV-B).
  double duplicate_pool_pm_multiple = 2.5;

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

  /// When the learning component is re-triggered mid-run (VM churn
  /// exceeded the oracle's threshold), consolidation either keeps using
  /// the previous Q-values (true — the paper's "continue using the
  /// previous Q-values") or pauses until the new ones are unified
  /// (false — the paper's "pause for a while and resume").
  bool continue_during_relearn = true;
};

}  // namespace glap::core
