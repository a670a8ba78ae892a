// Cycle-driven P2P simulation engine (PeerSim CDSim equivalent).
//
// Usage:
//   Engine engine(n_nodes, seed);
//   auto slot = engine.add_protocol_slot(make_protocols(...));
//   engine.add_observer(&metrics);
//   engine.run(720);
//
// Per round the engine orders nodes by a counter-based hash of
// (seed, round, node) — a deterministic per-round permutation, so no node
// systematically initiates first — invokes every installed protocol slot on
// every active node, then runs observers. Node status transitions (sleep
// for switched-off PMs, wake, fail) are applied immediately and broadcast
// to the node's protocol instances so overlays can drop dead links.
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
// vote parks the node — it is skipped until wake()/schedule_wake()/
// set_status re-activates it.
// Protocol storage is struct-of-arrays: each slot owns one contiguous
// arena of concrete protocol objects (add_protocol_pool) plus a flat
// per-node pointer array scanned on the hot path.
//
// Typed peer access is RTTI-free on the per-round path: each slot carries
// cached typed-pointer views, registered eagerly when the slot is added
// through the typed add_protocol_slot overload (and widened to interface
// types via add_protocol_view). protocol_at serves from those caches with
// a tag compare; dynamic_cast only runs on the cold first-access fallback
// for slots installed through the type-erased overload, plus a debug-only
// consistency check.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
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

namespace detail {
/// One byte of static storage per distinct protocol type; its address is
/// the type's identity (no RTTI, vague linkage merges it across TUs).
template <typename T>
inline constexpr char kProtocolTypeTag = 0;
}  // namespace detail

class Engine {
 public:
  using ProtocolSlot = std::size_t;

  Engine(std::size_t node_count, std::uint64_t seed);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Installs one protocol layer: `instances` must hold exactly one
  /// instance per node (index == NodeId). Returns the slot handle used to
  /// reach peer instances. This type-erased overload registers no typed
  /// view; the first protocol_at<T> on the slot resolves one lazily.
  ProtocolSlot add_protocol_slot(
      std::vector<std::unique_ptr<Protocol>> instances);

  /// Typed overload: additionally caches the concrete per-node pointers so
  /// protocol_at<T> never needs RTTI. Prefer this in protocol installers.
  template <typename T>
    requires(std::derived_from<T, Protocol> && !std::same_as<T, Protocol>)
  ProtocolSlot add_protocol_slot(std::vector<std::unique_ptr<T>> instances) {
    std::vector<std::unique_ptr<Protocol>> base;
    base.reserve(instances.size());
    std::vector<void*> ptrs;
    ptrs.reserve(instances.size());
    for (auto& p : instances) {
      ptrs.push_back(p.get());
      base.push_back(std::move(p));
    }
    const ProtocolSlot slot = add_protocol_slot(std::move(base));
    append_view(slot, type_tag<T>(), std::move(ptrs));
    return slot;
  }

  /// Struct-of-arrays slot: one contiguous arena of T, one object per
  /// node, constructed in node-id order by `make(node)`. The per-round
  /// scan walks objects that are adjacent in memory (no per-instance heap
  /// allocation, no pointer chasing between neighbours), which is what
  /// makes 100k-node rounds bandwidth-bound rather than allocator-bound.
  /// The typed view is registered eagerly, like the typed overload above.
  /// T must be move-constructible (the arena is reserved up front, so the
  /// move only runs while filling the pool, never afterwards; element
  /// addresses are stable for the engine's lifetime).
  template <typename T, typename Factory>
    requires(std::derived_from<T, Protocol> && !std::same_as<T, Protocol> &&
             std::constructible_from<T, std::invoke_result_t<Factory&, NodeId>>)
  ProtocolSlot add_protocol_pool(Factory&& make) {
    auto arena = std::make_shared<std::vector<T>>();
    arena->reserve(node_count());
    for (std::size_t node = 0; node < node_count(); ++node)
      arena->emplace_back(make(static_cast<NodeId>(node)));
    Slot slot;
    slot.instances.reserve(arena->size());
    std::vector<void*> ptrs;
    ptrs.reserve(arena->size());
    for (T& p : *arena) {
      slot.instances.push_back(&p);
      ptrs.push_back(&p);
    }
    slot.storage = std::move(arena);
    const ProtocolSlot index = push_slot(std::move(slot));
    append_view(index, type_tag<T>(), std::move(ptrs));
    return index;
  }


  /// Widens an already-registered `Concrete` view to a base/interface
  /// type, so protocol_at<As> is served from cache too (e.g. a Cyclon
  /// slot viewed as overlay::NeighborProvider). Pure pointer adjustment —
  /// no RTTI. No-op when the `As` view already exists.
  template <typename Concrete, typename As>
    requires std::derived_from<Concrete, As>
  void add_protocol_view(ProtocolSlot slot) {
    GLAP_REQUIRE(slot < slots_.size(), "protocol slot out of range");
    const TypedView* source = find_view(slot, type_tag<Concrete>());
    GLAP_REQUIRE(source != nullptr,
                 "add_protocol_view needs the concrete view registered");
    if (find_view(slot, type_tag<As>()) != nullptr) return;
    std::vector<void*> ptrs;
    ptrs.reserve(source->ptrs.size());
    for (void* p : source->ptrs)
      ptrs.push_back(static_cast<As*>(static_cast<Concrete*>(p)));
    append_view(slot, type_tag<As>(), std::move(ptrs));
  }

  /// Registers an observer (not owned). Observers run in add order.
  void add_observer(Observer* observer);

  /// Enables the quiescence semantic: after a node executes, its slots are
  /// polled via Protocol::can_quiesce and a unanimous vote parks it until
  /// an event re-activates it. `recheck_rounds` > 0 additionally schedules
  /// a wake `recheck_rounds` rounds after each parking, so no node stays
  /// parked unobserved forever (0 disables the heartbeat).
  void enable_quiescence(Round recheck_rounds = 0);

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

  /// Enqueues a wake for the start of `round` (or the next round start if
  /// `round` has passed). Drained before the round order is computed, in
  /// (round, node) order, so the resulting schedule is deterministic.
  void schedule_wake(NodeId node, Round round, WakeReason reason);

  /// wake() for every parked node (e.g. a fleet-wide re-learning trigger).
  void wake_all(WakeReason reason);

  /// Runs `rounds` rounds (continuing from the current round counter);
  /// stops early if an observer requests it. Returns rounds executed.
  Round run(Round rounds);

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

  /// Changes a node's status and notifies all of its protocol instances.
  void set_status(NodeId node, NodeStatus status);

  /// Typed access to a protocol instance; T must match the installed type
  /// (or a registered view of it). Throws precondition_error on mismatch.
  template <typename T>
  [[nodiscard]] T& protocol_at(ProtocolSlot slot, NodeId node) {
    GLAP_HOT_REQUIRE(slot < slots_.size(), "protocol slot out of range");
    GLAP_HOT_REQUIRE(node < slots_[slot].instances.size(),
                     "node id out of range");
    for (const TypedView& view : views_[slot]) {
      if (view.tag != type_tag<T>()) continue;
      T* typed = static_cast<T*>(view.ptrs[node]);
      GLAP_DEBUG_ASSERT(
          dynamic_cast<T*>(slots_[slot].instances[node]) == typed,
          "cached protocol view out of sync");
      return *typed;
    }
    return resolve_protocol_view<T>(slot, node);
  }

  [[nodiscard]] NetworkStats& network() noexcept { return network_; }
  [[nodiscard]] const NetworkStats& network() const noexcept {
    return network_;
  }

  /// Engine-level RNG for protocols needing shared randomness. Protocols
  /// typically hold their own split streams; the round order does not
  /// consume this stream (it is counter-hashed from the seed).
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Attaches the observability sinks (neither owned; either may be null).
  /// Install BEFORE protocols so instrumented code can resolve and cache
  /// its instruments on the driver thread. Protocols read these through
  /// metrics()/trace_log() and must guard every use with a null check —
  /// a null pointer is the disabled state and costs one predictable branch.
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
  using TypeTag = const void*;

  /// One protocol layer, struct-of-arrays: `instances` is the flat hot
  /// array scanned per round (index == NodeId); `storage` owns the backing
  /// memory — a contiguous `std::vector<T>` arena for pool slots, or the
  /// legacy per-instance unique_ptr vector for slots installed through
  /// add_protocol_slot.
  struct Slot {
    std::vector<Protocol*> instances;
    std::shared_ptr<void> storage;
  };

  struct TypedView {
    TypeTag tag = nullptr;
    std::vector<void*> ptrs;  ///< per-node pointers, already cast to T*
  };

  template <typename T>
  [[nodiscard]] static TypeTag type_tag() noexcept {
    return &detail::kProtocolTypeTag<T>;
  }

  void append_view(ProtocolSlot slot, TypeTag tag, std::vector<void*> ptrs);

  [[nodiscard]] const TypedView* find_view(ProtocolSlot slot,
                                           TypeTag tag) const;

  /// Cold path: first protocol_at<T> on a slot with no cached T view
  /// (slots installed through the type-erased overload). Resolves every
  /// instance with one dynamic_cast, caches the view, and throws
  /// precondition_error when the slot does not actually hold T.
  template <typename T>
  T& resolve_protocol_view(ProtocolSlot slot, NodeId node) {
    GLAP_REQUIRE(slot < slots_.size(), "protocol slot out of range");
    GLAP_REQUIRE(node < slots_[slot].instances.size(),
                 "node id out of range");
    std::vector<void*> ptrs;
    ptrs.reserve(slots_[slot].instances.size());
    for (Protocol* p : slots_[slot].instances) {
      T* typed = dynamic_cast<T*>(p);
      GLAP_REQUIRE(typed != nullptr, "protocol type mismatch for slot");
      ptrs.push_back(typed);
    }
    T* result = static_cast<T*>(ptrs[node]);
    append_view(slot, type_tag<T>(), std::move(ptrs));
    return *result;
  }

  /// Registers a finished Slot and its (empty) view set; returns its index.
  ProtocolSlot push_slot(Slot slot);

  /// Recomputes order_ for the current round (hash-rank permutation).
  void compute_round_order();

  /// Visits order_ once: every node active and not parked at its turn
  /// executes its slot stack, then votes on quiescence.
  void run_round();

  /// Quiescence vote after `node` executed: parks it when every slot
  /// agrees.
  void poll_quiesce(NodeId node);

  /// Drains schedule_wake entries due at the current round (round start,
  /// before any node of the round executes).
  void drain_wake_queue();

  /// Clears a node's parked bit (if set) and emits the activity event.
  void clear_quiescent(NodeId node, WakeReason reason);

  void trace_activity(NodeId node, bool awake, WakeReason reason);

  /// Runs one node's full slot stack, re-checking status between slots
  /// because an earlier protocol may have put the node to sleep.
  void execute_node(NodeId node);

  std::vector<NodeStatus> status_;
  std::size_t active_count_;
  std::vector<Slot> slots_;
  std::vector<std::vector<TypedView>> views_;  ///< parallel to slots_
  std::vector<Observer*> observers_;
  std::vector<NodeId> order_;
  std::vector<std::uint64_t> order_keys_;  ///< per-node sort key, scratch
  NetworkStats network_;
  metrics::MetricsRegistry* metrics_ = nullptr;
  trace::TraceLog* trace_ = nullptr;
  prof::PhaseProfiler* profiler_ = nullptr;
  net::NetworkModel* net_model_ = nullptr;
  Rng rng_;
  std::uint64_t order_seed_;
  Round round_ = 0;
  bool stop_requested_ = false;

  // --- quiescence state ---
  bool quiescence_ = false;
  Round recheck_rounds_ = 0;
  std::vector<std::uint8_t> quiescent_;  ///< parked by can_quiesce vote
  std::size_t quiescent_count_ = 0;
  /// Pending schedule_wake entries, a min-heap on (round, node, reason).
  std::vector<std::pair<Round, std::pair<NodeId, WakeReason>>> wake_queue_;
};

}  // namespace glap::sim
