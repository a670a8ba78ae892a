// Cycle-driven P2P simulation engine (PeerSim CDSim equivalent).
//
// Usage, as the protocol installers and the harness drive it:
//   Engine engine(pm_count, seed);
//   engine.set_telemetry(registry, trace);  // before any install
//   Slot<Cyclon> overlay = engine.add_protocol_pool<Cyclon>(
//       [&](NodeId node, Slot<Cyclon> self) { return Cyclon(self, ...); });
//   // ...one pool per layer, each handed the slots it talks to...
//   engine.step();                          // one round
//   Cyclon& peer = engine.protocol_at(overlay, node);
//
// Per round the engine orders nodes by a counter-based hash of
// (seed, round, node) — a deterministic per-round permutation, so no node
// systematically initiates first — and invokes every installed protocol
// slot on every active node. Node status transitions (sleep for
// switched-off PMs, wake, fail) are applied immediately; overlays see
// them through is_active and drop dead links when they next sample.
//
// One thread runs the round, in the hash-rank order: a node is visited
// iff it is active (and not parked) when the visit cursor reaches it, so a
// node woken or switched on by an earlier-ranked interaction runs later in
// the same round, and one whose rank has passed waits for the next round.
// Parallelism lives one level up, across independent runs (the harness's
// run_cells over a ThreadPool); a run is single-threaded (DESIGN.md §8).
//
// Quiescence (enable_quiescence, DESIGN.md §12): after a node executes,
// every installed slot is polled via Protocol::can_quiesce, and a unanimous
// vote parks the node — it is skipped until wake()/wake_all()/set_status
// re-activates it.
//
// Protocol storage is struct-of-arrays: each slot owns one contiguous
// arena of concrete protocol objects (add_protocol_pool) plus a flat
// per-node pointer array scanned on the hot path. Peer access is typed
// by the slot handle: protocol_at(Slot<T>, node) is a static_cast of that
// array, with dynamic_cast only in a debug-build assertion.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/network_stats.hpp"
#include "sim/node.hpp"
#include "sim/protocol.hpp"

namespace glap::metrics {
class MetricsRegistry;
}
namespace glap::prof {
class PhaseProfiler;
}
namespace glap::trace {
class TraceLog;
}
namespace glap::net {
class NetworkModel;
}

namespace glap::sim {

/// Typed handle to one installed protocol layer, returned by
/// Engine::add_protocol_pool<T>. It converts implicitly to Slot<Base> for
/// any base of T, so a Cyclon, Newscast or random-graph slot passes as
/// Slot<overlay::NeighborProvider>; Engine::protocol_at then needs no
/// runtime type check, and asking a slot for a type it cannot be viewed
/// as does not compile.
template <typename T>
class Slot {
 public:
  template <typename U>
    requires std::derived_from<U, T>
  Slot(Slot<U> other) noexcept : index_(other.index()) {}

  /// Position in the engine's slot stack: the execute order, and the
  /// profiler's phase kFirstSlot + index.
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  friend class Engine;
  explicit Slot(std::size_t index) noexcept : index_(index) {}

  std::size_t index_;
};

class Engine {
 public:
  Engine(std::size_t node_count, std::uint64_t seed);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Installs one protocol layer as a struct-of-arrays pool: one
  /// contiguous arena of T, one object per node, built in node-id order
  /// by `make(node, slot)`, where `slot` is the handle being filled, so
  /// an instance can keep it to reach its peers. The per-round scan walks
  /// objects that are adjacent in memory (no per-instance heap
  /// allocation, no pointer chasing between neighbours), which is what
  /// makes 100k-node rounds bandwidth-bound rather than allocator-bound.
  /// T must be move-constructible (the arena is reserved up front, so the
  /// move only runs while filling the pool, never afterwards; element
  /// addresses are stable for the engine's lifetime).
  template <typename T, typename Factory>
    requires(std::derived_from<T, Protocol> && !std::same_as<T, Protocol> &&
             std::constructible_from<
                 T, std::invoke_result_t<Factory&, NodeId, Slot<T>>>)
  Slot<T> add_protocol_pool(Factory&& make) {
    const Slot<T> slot(layers_.size());
    auto arena = std::make_shared<std::vector<T>>();
    arena->reserve(node_count());
    for (std::size_t node = 0; node < node_count(); ++node)
      arena->emplace_back(make(static_cast<NodeId>(node), slot));
    Layer layer;
    layer.instances.reserve(arena->size());
    for (T& p : *arena) layer.instances.push_back(&p);
    layer.storage = std::move(arena);
    layers_.push_back(std::move(layer));
    return slot;
  }

  /// Enables the quiescence semantic: after a node executes, its slots are
  /// polled via Protocol::can_quiesce and a unanimous vote parks it until
  /// an event (wake, wake_all, or a status change) re-activates it. There
  /// is no timed wake: a parked node stays parked until something happens
  /// to it, so a protocol waiting on a future round must veto parking.
  void enable_quiescence();

  [[nodiscard]] bool quiescence_enabled() const noexcept {
    return quiescence_;
  }

  /// True while `node` is parked by a unanimous can_quiesce vote.
  [[nodiscard]] bool is_quiescent(NodeId node) const {
    GLAP_REQUIRE(node < status_.size(), "node id out of range");
    return !quiescent_.empty() && quiescent_[node] != 0;
  }

  /// Number of nodes currently parked by can_quiesce votes. Nodes skipped
  /// for being asleep/failed are not counted — this is the convergence
  /// signal, not the scheduling set.
  [[nodiscard]] std::size_t quiescent_count() const noexcept {
    return quiescent_count_;
  }

  /// Re-activates a parked node immediately: mid-round it still runs this
  /// round iff its rank has not passed yet. No-op on nodes that are not
  /// parked, so callers may signal unconditionally.
  void wake(NodeId node, WakeReason reason);

  /// wake() for every parked node (e.g. a fleet-wide re-learning trigger).
  void wake_all(WakeReason reason);

  /// Runs `rounds` rounds, continuing from the current round counter.
  void run(Round rounds);

  /// Executes a single round.
  void step();

  [[nodiscard]] std::size_t node_count() const noexcept {
    return status_.size();
  }
  [[nodiscard]] Round current_round() const noexcept { return round_; }

  [[nodiscard]] NodeStatus status(NodeId node) const {
    GLAP_REQUIRE(node < status_.size(), "node id out of range");
    return status_[node];
  }
  [[nodiscard]] bool is_active(NodeId node) const {
    GLAP_HOT_REQUIRE(node < status_.size(), "node id out of range");
    return status_[node] == NodeStatus::kActive;
  }
  [[nodiscard]] std::size_t active_count() const noexcept {
    return active_count_;
  }

  /// Changes a node's status; a parked node leaving the active state is
  /// un-parked first.
  void set_status(NodeId node, NodeStatus status);

  /// The instance of `slot` on `node`: a bounds-checked index into the
  /// slot's flat pointer array. T comes from the slot's type, so no
  /// runtime type check is needed (only a debug build verifies it).
  template <typename T>
  [[nodiscard]] T& protocol_at(Slot<T> slot, NodeId node) {
    GLAP_HOT_REQUIRE(slot.index() < layers_.size(),
                     "protocol slot out of range");
    const std::vector<Protocol*>& instances = layers_[slot.index()].instances;
    GLAP_HOT_REQUIRE(node < instances.size(), "node id out of range");
    T* typed = static_cast<T*>(instances[node]);
    GLAP_DEBUG_ASSERT(dynamic_cast<T*>(instances[node]) == typed,
                      "protocol slot holds another type");
    return *typed;
  }

  [[nodiscard]] NetworkStats& network() noexcept { return network_; }
  [[nodiscard]] const NetworkStats& network() const noexcept {
    return network_;
  }

  /// Attaches the observability sinks (neither owned; either may be null).
  /// Attach BEFORE installing protocols: installers resolve their
  /// instruments from metrics() once and hand them to every instance.
  /// Protocols read trace_log() per event and must guard every use with a
  /// null check — a null pointer is the disabled state and costs one
  /// predictable branch.
  void set_telemetry(metrics::MetricsRegistry* metrics,
                     trace::TraceLog* trace) noexcept {
    metrics_ = metrics;
    trace_ = trace;
  }

  [[nodiscard]] metrics::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] trace::TraceLog* trace_log() const noexcept { return trace_; }

  /// Attaches the message-level network model (not owned; null = the
  /// ideal instantaneous network, which is the default). Protocols read
  /// it through net_model() and must treat null as "always delivered".
  void set_net_model(net::NetworkModel* net) noexcept { net_model_ = net; }
  [[nodiscard]] net::NetworkModel* net_model() const noexcept {
    return net_model_;
  }

  /// Attaches the per-phase profiler (not owned; null = disabled, which
  /// costs two predictable branches per instrumented scope). Per-slot
  /// execute bodies are timed; phases beyond prof::PhaseProfiler::kMaxPhases
  /// are silently uncounted.
  void set_profiler(prof::PhaseProfiler* profiler) noexcept {
    profiler_ = profiler;
  }
  [[nodiscard]] prof::PhaseProfiler* profiler() const noexcept {
    return profiler_;
  }

 private:
  /// One protocol layer, struct-of-arrays: `instances` is the flat hot
  /// array scanned per round (index == NodeId); `storage` owns the
  /// contiguous `std::vector<T>` arena the pointers point into.
  struct Layer {
    std::vector<Protocol*> instances;
    std::shared_ptr<void> storage;
  };

  /// Recomputes order_ for the current round (hash-rank permutation).
  void compute_round_order();

  /// Visits order_ once: every node active and not parked at its turn
  /// executes its slot stack, then votes on quiescence.
  void run_round();

  /// Quiescence vote after `node` executed: parks it when every slot
  /// agrees.
  void poll_quiesce(NodeId node);

  /// Clears a node's parked bit (if set) and emits the activity event.
  void clear_quiescent(NodeId node, WakeReason reason);

  void trace_activity(NodeId node, bool awake, WakeReason reason);

  /// Runs one node's full slot stack, re-checking status between slots
  /// because an earlier protocol may have put the node to sleep.
  void execute_node(NodeId node);

  std::vector<NodeStatus> status_;
  std::size_t active_count_;
  std::vector<Layer> layers_;
  std::vector<NodeId> order_;
  std::vector<std::uint64_t> order_keys_;  ///< per-node sort key, scratch
  NetworkStats network_;
  metrics::MetricsRegistry* metrics_ = nullptr;
  trace::TraceLog* trace_ = nullptr;
  prof::PhaseProfiler* profiler_ = nullptr;
  net::NetworkModel* net_model_ = nullptr;
  std::uint64_t order_seed_;
  Round round_ = 0;

  // --- quiescence state ---
  bool quiescence_ = false;
  std::vector<std::uint8_t> quiescent_;  ///< parked by can_quiesce vote
  std::size_t quiescent_count_ = 0;
};

}  // namespace glap::sim
