// Quiescence and the round loop's visit rule (DESIGN.md §12): unanimous
// can_quiesce votes park a node, any veto blocks parking, wake / wake_all /
// set_status re-activate, and a node woken or switched on mid-round runs
// in the same round iff its rank comes after the waker's.
// Protocol storage goes through add_protocol_pool, the only install
// path, so these tests also cover the struct-of-arrays arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace glap::sim {
namespace {

/// Logs every execute; votes to park once it has run `threshold` times.
/// poke() models an incoming state change that invalidates convergence.
class CountingProtocol final : public Protocol {
 public:
  CountingProtocol(std::vector<NodeId>* log, int threshold)
      : log_(log), threshold_(threshold) {}

  void execute(Engine&, NodeId self) override {
    log_->push_back(self);
    ++runs_;
  }
  bool can_quiesce(const Engine&, NodeId) const override {
    return runs_ >= threshold_;
  }

  void poke() { runs_ = 0; }
  [[nodiscard]] int runs() const { return runs_; }

 private:
  std::vector<NodeId>* log_;
  int threshold_;
  int runs_ = 0;
};

/// A protocol that never votes to park (the default Protocol vote).
class VetoProtocol final : public Protocol {
 public:
  void execute(Engine&, NodeId) override {}
};

Slot<CountingProtocol> install_counters(Engine& engine,
                                        std::vector<NodeId>* log,
                                        int threshold) {
  return engine.add_protocol_pool<CountingProtocol>(
      [&](NodeId, Slot<CountingProtocol>) {
        return CountingProtocol(log, threshold);
      });
}

TEST(Quiescence, UnanimousVoteParksAfterThreshold) {
  Engine engine(4, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 2);

  engine.step();
  EXPECT_EQ(engine.quiescent_count(), 0u);  // runs=1 < threshold
  engine.step();
  EXPECT_EQ(engine.quiescent_count(), 4u);  // unanimous vote after round 2
  EXPECT_EQ(log.size(), 8u);

  engine.step();
  engine.step();
  EXPECT_EQ(log.size(), 8u) << "parked nodes must not execute";
  EXPECT_TRUE(engine.is_quiescent(0));
}

TEST(Quiescence, AnyVetoBlocksParking) {
  Engine engine(4, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 1);
  engine.add_protocol_pool<VetoProtocol>(
      [](NodeId, Slot<VetoProtocol>) { return VetoProtocol(); });

  for (int i = 0; i < 3; ++i) engine.step();
  EXPECT_EQ(engine.quiescent_count(), 0u);
  EXPECT_EQ(log.size(), 12u) << "vetoed nodes keep executing every round";
}

TEST(Quiescence, WakeReactivatesAndReparksAfterOneRound) {
  Engine engine(4, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  const auto slot = install_counters(engine, &log, 1);
  engine.step();
  ASSERT_EQ(engine.quiescent_count(), 4u);

  // Model an incoming gossip exchange touching node 2's state.
  engine.protocol_at(slot, 2).poke();
  engine.wake(2, WakeReason::kGossip);
  EXPECT_FALSE(engine.is_quiescent(2));
  EXPECT_EQ(engine.quiescent_count(), 3u);

  log.clear();
  engine.step();
  EXPECT_EQ(log, std::vector<NodeId>{2}) << "only the woken node runs";
  EXPECT_EQ(engine.quiescent_count(), 4u) << "it re-parks after executing";
}

TEST(Quiescence, WakeOnNonParkedNodeIsANoOp) {
  Engine engine(3, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 100);  // never parks
  engine.step();
  engine.wake(1, WakeReason::kGossip);
  engine.step();
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(engine.quiescent_count(), 0u);
}

TEST(Quiescence, WakeAllReactivatesEveryParkedNode) {
  Engine engine(5, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 1);
  engine.step();
  ASSERT_EQ(engine.quiescent_count(), 5u);
  engine.wake_all(WakeReason::kRelearn);
  EXPECT_EQ(engine.quiescent_count(), 0u);
  log.clear();
  engine.step();
  EXPECT_EQ(log.size(), 5u);
}

TEST(Quiescence, StatusTransitionUnparks) {
  Engine engine(3, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 1);
  engine.step();
  ASSERT_TRUE(engine.is_quiescent(1));
  engine.set_status(1, NodeStatus::kSleeping);
  EXPECT_FALSE(engine.is_quiescent(1)) << "lifecycle changes clear the park";
  // A sleeping node does not execute, parked or not.
  log.clear();
  engine.step();
  EXPECT_TRUE(log.empty());
}

// ---- visit rule: mid-round wakes ------------------------------------------

/// Script for WakingProtocol: in round `round`, node `waker` re-activates
/// every target while it executes — by wake() when `switch_on` is false,
/// else by set_status(kActive). Every execution is logged as (round, node).
struct WakeScript {
  NodeId waker = 0;
  Round round = 0;
  std::vector<NodeId> targets;
  bool switch_on = false;
  std::vector<std::pair<Round, NodeId>> log;
};

class WakingProtocol final : public Protocol {
 public:
  explicit WakingProtocol(WakeScript* script) : script_(script) {}

  void execute(Engine& engine, NodeId self) override {
    script_->log.emplace_back(engine.current_round(), self);
    if (self != script_->waker || engine.current_round() != script_->round)
      return;
    for (const NodeId target : script_->targets) {
      if (script_->switch_on)
        engine.set_status(target, NodeStatus::kActive);
      else
        engine.wake(target, WakeReason::kGossip);
    }
  }
  bool can_quiesce(const Engine&, NodeId) const override { return true; }

 private:
  WakeScript* script_;
};

constexpr std::size_t kVisitNodes = 8;
constexpr std::uint64_t kVisitSeed = 7;

/// The engine's visit order in `round`: the order depends only on (seed,
/// round, node), so a plain logging engine with the same seed reveals it.
std::vector<NodeId> visit_order(Round round) {
  WakeScript probe;
  probe.round = static_cast<Round>(-1);  // never wakes anyone
  Engine engine(kVisitNodes, kVisitSeed);
  engine.add_protocol_pool<WakingProtocol>(
      [&](NodeId, Slot<WakingProtocol>) { return WakingProtocol(&probe); });
  engine.run(round + 1);
  std::vector<NodeId> order;
  for (const auto& [r, node] : probe.log)
    if (r == round) order.push_back(node);
  return order;
}

/// Nodes that executed in `round`, in execution order.
std::vector<NodeId> ran_in(const WakeScript& script, Round round) {
  std::vector<NodeId> out;
  for (const auto& [r, node] : script.log)
    if (r == round) out.push_back(node);
  return out;
}

bool contains(const std::vector<NodeId>& v, NodeId node) {
  return std::find(v.begin(), v.end(), node) != v.end();
}

TEST(VisitRule, WokenNodeRunsThisRoundIffRankedAfterTheWaker) {
  const std::vector<NodeId> order = visit_order(1);
  ASSERT_EQ(order.size(), kVisitNodes);
  WakeScript script;
  script.round = 1;
  script.waker = order[4];
  const NodeId before = order[1];
  const NodeId after = order[6];
  script.targets = {before, after};

  Engine engine(kVisitNodes, kVisitSeed);
  engine.enable_quiescence();
  engine.add_protocol_pool<WakingProtocol>(
      [&](NodeId, Slot<WakingProtocol>) { return WakingProtocol(&script); });
  engine.step();  // round 0: every node runs once and parks
  ASSERT_EQ(engine.quiescent_count(), kVisitNodes);
  engine.wake(script.waker, WakeReason::kSchedule);
  engine.step();  // round 1: the waker runs and wakes both targets
  engine.step();  // round 2

  EXPECT_EQ(ran_in(script, 1), (std::vector<NodeId>{script.waker, after}))
      << "a target ranked after the waker runs in the same round";
  EXPECT_EQ(ran_in(script, 2), std::vector<NodeId>{before})
      << "a target ranked before the waker runs next round";
  EXPECT_EQ(engine.quiescent_count(), kVisitNodes);
}

TEST(VisitRule, SwitchedOnNodeRunsThisRoundIffRankedAfterTheWaker) {
  const std::vector<NodeId> order = visit_order(1);
  ASSERT_EQ(order.size(), kVisitNodes);
  WakeScript script;
  script.round = 1;
  script.waker = order[3];
  script.switch_on = true;
  const NodeId before = order[0];
  const NodeId after = order[7];
  script.targets = {before, after};

  Engine engine(kVisitNodes, kVisitSeed);
  engine.add_protocol_pool<WakingProtocol>(
      [&](NodeId, Slot<WakingProtocol>) { return WakingProtocol(&script); });
  engine.step();  // round 0: every node runs
  engine.set_status(before, NodeStatus::kSleeping);
  engine.set_status(after, NodeStatus::kSleeping);
  engine.step();  // round 1: the waker switches both targets back on
  engine.step();  // round 2: everyone runs again

  const std::vector<NodeId> round1 = ran_in(script, 1);
  EXPECT_EQ(round1.size(), kVisitNodes - 1);
  EXPECT_TRUE(contains(round1, after))
      << "a node switched on ahead of its rank runs in the same round";
  EXPECT_FALSE(contains(round1, before))
      << "a node switched on after its rank passed waits for next round";
  EXPECT_EQ(ran_in(script, 2).size(), kVisitNodes);
}

}  // namespace
}  // namespace glap::sim
