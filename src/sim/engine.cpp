#include "sim/engine.hpp"

#include <algorithm>
#include <numeric>

#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "common/tracing.hpp"

namespace glap::sim {

Engine::Engine(std::size_t node_count, std::uint64_t seed)
    : status_(node_count, NodeStatus::kActive),
      active_count_(node_count),
      order_(node_count),
      order_keys_(node_count),
      order_seed_(hash_combine(seed, hash_tag("order"))) {
  GLAP_REQUIRE(node_count > 0, "engine needs at least one node");
  GLAP_REQUIRE(node_count < static_cast<std::size_t>(kInvalidNode),
               "too many nodes");
  std::iota(order_.begin(), order_.end(), NodeId{0});
}

void Engine::enable_quiescence() {
  quiescence_ = true;
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
}

void Engine::trace_activity(NodeId node, bool awake, WakeReason reason) {
  if (!quiescence_ || trace_ == nullptr) return;
  trace_->emit(trace::Activity{node, awake, reason});
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

void Engine::poll_quiesce(NodeId node) {
  if (!quiescence_ || quiescent_[node] != 0) return;
  if (status_[node] != NodeStatus::kActive) return;
  for (const Layer& layer : layers_)
    if (!layer.instances[node]->can_quiesce(*this, node)) return;
  quiescent_[node] = 1;
  ++quiescent_count_;
  trace_activity(node, /*awake=*/false, WakeReason::kConverged);
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
  for (std::size_t s = 0; s < layers_.size(); ++s) {
    // A protocol earlier in the stack may have put this node to sleep
    // (e.g. consolidation switched the PM off mid-round).
    if (status_[node] != NodeStatus::kActive) break;
    prof::PhaseScope timer(profiler_, prof::PhaseProfiler::kFirstSlot + s);
    layers_[s].instances[node]->execute(*this, node);
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
  compute_round_order();
  run_round();
  ++round_;
}

void Engine::run(Round rounds) {
  for (Round r = 0; r < rounds; ++r) step();
}

}  // namespace glap::sim
