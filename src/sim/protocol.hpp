// Protocol and Observer interfaces for the cycle-driven engine.
//
// This mirrors PeerSim's CDSim model: every node owns one instance of each
// installed protocol; once per round the engine invokes the active nodes'
// instances in a deterministic per-round order. Protocol instances interact
// by directly invoking methods on peer instances (fetched through
// Engine::protocol_at), which models a synchronous request/response within
// the round — exactly how PeerSim cycle-driven protocols are written.
#pragma once

#include "sim/node.hpp"

namespace glap::sim {

class Engine;

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// One gossip cycle initiated by `self`. Called only for active nodes.
  virtual void execute(Engine& engine, NodeId self) = 0;

  /// Invoked when the node's lifecycle status changes (sleep/wake/fail).
  virtual void on_status_change(Engine& /*engine*/, NodeId /*self*/,
                                NodeStatus /*status*/) {}

  /// Quiescence vote (DESIGN.md §12): polled right after the node executed
  /// a round, only when the engine runs with quiescence enabled. A node is
  /// parked — skipped in subsequent rounds until an event re-activates it —
  /// only when EVERY installed slot returns true. Must be a pure read of
  /// the instance's own state. Default: never quiesce, so a stack that
  /// contains any protocol without an explicit vote stays always-active.
  virtual bool can_quiesce(const Engine& /*engine*/,
                           NodeId /*self*/) const {
    return false;
  }
};

/// Observers run at the end of every round; they sample metrics and may
/// stop the simulation early by returning false from on_round_end.
class Observer {
 public:
  virtual ~Observer() = default;

  /// Returns false to stop the simulation after this round.
  virtual bool on_round_end(Engine& engine, Round round) = 0;
};

}  // namespace glap::sim
