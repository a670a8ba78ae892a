#include "sim/engine.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/profiler.hpp"
#include "common/tracing.hpp"

namespace glap::sim {

Engine::Engine(std::size_t node_count, std::uint64_t seed)
    : status_(node_count, NodeStatus::kActive),
      active_count_(node_count),
      order_(node_count),
      order_keys_(node_count),
      rng_(hash_combine(seed, hash_tag("engine"))),
      order_seed_(hash_combine(seed, hash_tag("order"))) {
  GLAP_REQUIRE(node_count > 0, "engine needs at least one node");
  GLAP_REQUIRE(node_count < static_cast<std::size_t>(kInvalidNode),
               "too many nodes");
  std::iota(order_.begin(), order_.end(), NodeId{0});
}

Engine::ProtocolSlot Engine::add_protocol_slot(
    std::vector<std::unique_ptr<Protocol>> instances) {
  GLAP_REQUIRE(instances.size() == status_.size(),
               "need exactly one protocol instance per node");
  for (const auto& p : instances)
    GLAP_REQUIRE(p != nullptr, "null protocol instance");
  Slot slot;
  slot.instances.reserve(instances.size());
  for (const auto& p : instances) slot.instances.push_back(p.get());
  slot.storage = std::make_shared<std::vector<std::unique_ptr<Protocol>>>(
      std::move(instances));
  return push_slot(std::move(slot));
}

Engine::ProtocolSlot Engine::push_slot(Slot slot) {
  GLAP_REQUIRE(slot.instances.size() == status_.size(),
               "need exactly one protocol instance per node");
  slots_.push_back(std::move(slot));
  views_.emplace_back();
  return slots_.size() - 1;
}

void Engine::append_view(ProtocolSlot slot, TypeTag tag,
                         std::vector<void*> ptrs) {
  views_[slot].push_back({tag, std::move(ptrs)});
}

const Engine::TypedView* Engine::find_view(ProtocolSlot slot,
                                           TypeTag tag) const {
  for (const TypedView& view : views_[slot])
    if (view.tag == tag) return &view;
  return nullptr;
}

void Engine::add_observer(Observer* observer) {
  GLAP_REQUIRE(observer != nullptr, "null observer");
  observers_.push_back(observer);
}

void Engine::enable_quiescence(Round recheck_rounds) {
  quiescence_ = true;
  recheck_rounds_ = recheck_rounds;
  if (quiescent_.empty()) quiescent_.assign(node_count(), 0);
}

void Engine::set_status(NodeId node, NodeStatus status) {
  GLAP_REQUIRE(node < status_.size(), "node id out of range");
  const NodeStatus old = status_[node];
  if (old == status) return;
  GLAP_REQUIRE(old != NodeStatus::kFailed, "failed nodes cannot transition");
  // A parked node leaving the active state is un-parked first, so the
  // quiescent set only ever contains active nodes and the activity trace
  // alternates cleanly per node.
  if (status != NodeStatus::kActive) clear_quiescent(node, WakeReason::kStatus);
  status_[node] = status;
  if (old == NodeStatus::kActive) --active_count_;
  if (status == NodeStatus::kActive) ++active_count_;
  for (auto& slot : slots_)
    slot.instances[node]->on_status_change(*this, node, status);
}

void Engine::trace_activity(NodeId node, bool awake, WakeReason reason) {
  if (!quiescence_ || trace_ == nullptr) return;
  trace_->emit(trace::Kind::kActivity, node, awake ? 1 : 0,
               static_cast<std::int64_t>(reason));
}

void Engine::clear_quiescent(NodeId node, WakeReason reason) {
  if (quiescent_.empty() || quiescent_[node] == 0) return;
  quiescent_[node] = 0;
  --quiescent_count_;
  trace_activity(node, /*awake=*/true, reason);
}

void Engine::wake(NodeId node, WakeReason reason) {
  GLAP_REQUIRE(node < status_.size(), "node id out of range");
  clear_quiescent(node, reason);
}

void Engine::wake_all(WakeReason reason) {
  if (quiescent_count_ == 0) return;
  for (std::size_t node = 0; node < status_.size(); ++node)
    wake(static_cast<NodeId>(node), reason);
}

void Engine::schedule_wake(NodeId node, Round round, WakeReason reason) {
  GLAP_REQUIRE(node < status_.size(), "node id out of range");
  wake_queue_.emplace_back(round, std::make_pair(node, reason));
  std::push_heap(wake_queue_.begin(), wake_queue_.end(),
                 std::greater<>());
}

void Engine::drain_wake_queue() {
  while (!wake_queue_.empty() && wake_queue_.front().first <= round_) {
    std::pop_heap(wake_queue_.begin(), wake_queue_.end(), std::greater<>());
    const auto [node, reason] = wake_queue_.back().second;
    wake_queue_.pop_back();
    wake(node, reason);
  }
}

void Engine::poll_quiesce(NodeId node) {
  if (!quiescence_ || quiescent_[node] != 0) return;
  if (status_[node] != NodeStatus::kActive) return;
  for (const Slot& slot : slots_)
    if (!slot.instances[node]->can_quiesce(*this, node)) return;
  quiescent_[node] = 1;
  ++quiescent_count_;
  trace_activity(node, /*awake=*/false, WakeReason::kConverged);
  if (recheck_rounds_ > 0)
    schedule_wake(node, round_ + recheck_rounds_, WakeReason::kSchedule);
}

void Engine::compute_round_order() {
  // Counter-based hash rank: a deterministic permutation per (seed, round),
  // independent of any RNG stream state.
  const std::uint64_t round_seed = hash_combine(order_seed_, round_);
  for (std::size_t node = 0; node < order_keys_.size(); ++node)
    order_keys_[node] = hash_combine(round_seed, node);
  std::sort(order_.begin(), order_.end(), [this](NodeId a, NodeId b) {
    return order_keys_[a] != order_keys_[b] ? order_keys_[a] < order_keys_[b]
                                            : a < b;
  });
}

void Engine::execute_node(NodeId node) {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    // A protocol earlier in the stack may have put this node to sleep
    // (e.g. consolidation switched the PM off mid-round).
    if (status_[node] != NodeStatus::kActive) break;
    prof::PhaseScope timer(profiler_, prof::PhaseProfiler::kFirstSlot + s);
    slots_[s].instances[node]->execute(*this, node);
  }
}

void Engine::run_round() {
  // Status and parking are read at visit time, so a node woken or switched
  // on by an earlier-ranked interaction still runs this round, and one put
  // to sleep before its turn is skipped.
  for (const NodeId node : order_) {
    if (status_[node] != NodeStatus::kActive) continue;
    if (quiescence_ && quiescent_[node] != 0) continue;
    execute_node(node);
    if (quiescence_) poll_quiesce(node);
  }
}

void Engine::step() {
  drain_wake_queue();
  compute_round_order();
  run_round();
  ++round_;
  for (Observer* obs : observers_) {
    if (!obs->on_round_end(*this, round_)) stop_requested_ = true;
  }
}

Round Engine::run(Round rounds) {
  stop_requested_ = false;
  Round executed = 0;
  while (executed < rounds && !stop_requested_) {
    step();
    ++executed;
  }
  return executed;
}

}  // namespace glap::sim
