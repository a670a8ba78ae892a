#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace glap::sim {
namespace {

/// Records the order in which execute fires.
class RecordingProtocol final : public Protocol {
 public:
  explicit RecordingProtocol(std::vector<NodeId>* log) : log_(log) {}
  void execute(Engine&, NodeId self) override {
    log_->push_back(self);
  }
  void on_status_change(Engine&, NodeId self, NodeStatus status) override {
    status_changes.push_back({self, status});
  }

  std::vector<std::pair<NodeId, NodeStatus>> status_changes;

 private:
  std::vector<NodeId>* log_;
};

std::vector<std::unique_ptr<Protocol>> make_recorders(
    std::size_t n, std::vector<NodeId>* log) {
  std::vector<std::unique_ptr<Protocol>> v;
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(std::make_unique<RecordingProtocol>(log));
  return v;
}

TEST(Engine, EveryActiveNodeRunsOncePerRound) {
  Engine engine(10, 1);
  std::vector<NodeId> log;
  engine.add_protocol_slot(make_recorders(10, &log));
  engine.step();
  EXPECT_EQ(log.size(), 10u);
  std::vector<NodeId> sorted = log;
  std::sort(sorted.begin(), sorted.end());
  for (NodeId i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Engine, OrderIsShuffledBetweenRounds) {
  Engine engine(50, 2);
  std::vector<NodeId> log;
  engine.add_protocol_slot(make_recorders(50, &log));
  engine.step();
  std::vector<NodeId> round1 = log;
  log.clear();
  engine.step();
  EXPECT_NE(round1, log);
}

TEST(Engine, SameSeedSameSchedule) {
  std::vector<NodeId> log_a, log_b;
  {
    Engine engine(20, 7);
    engine.add_protocol_slot(make_recorders(20, &log_a));
    engine.step();
    engine.step();
  }
  {
    Engine engine(20, 7);
    engine.add_protocol_slot(make_recorders(20, &log_b));
    engine.step();
    engine.step();
  }
  EXPECT_EQ(log_a, log_b);
}

TEST(Engine, SleepingNodesDoNotInitiate) {
  Engine engine(5, 3);
  std::vector<NodeId> log;
  engine.add_protocol_slot(make_recorders(5, &log));
  engine.set_status(2, NodeStatus::kSleeping);
  engine.step();
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(std::count(log.begin(), log.end(), NodeId{2}), 0);
}

TEST(Engine, ActiveCountTracksStatus) {
  Engine engine(4, 4);
  EXPECT_EQ(engine.active_count(), 4u);
  engine.set_status(0, NodeStatus::kSleeping);
  EXPECT_EQ(engine.active_count(), 3u);
  engine.set_status(0, NodeStatus::kActive);
  EXPECT_EQ(engine.active_count(), 4u);
  engine.set_status(1, NodeStatus::kFailed);
  EXPECT_EQ(engine.active_count(), 3u);
}

TEST(Engine, StatusChangeNotifiesProtocols) {
  Engine engine(3, 5);
  std::vector<NodeId> log;
  auto instances = make_recorders(3, &log);
  auto* p1 = static_cast<RecordingProtocol*>(instances[1].get());
  engine.add_protocol_slot(std::move(instances));
  engine.set_status(1, NodeStatus::kSleeping);
  ASSERT_EQ(p1->status_changes.size(), 1u);
  EXPECT_EQ(p1->status_changes[0].first, 1u);
  EXPECT_EQ(p1->status_changes[0].second, NodeStatus::kSleeping);
}

TEST(Engine, FailedNodesCannotRecover) {
  Engine engine(2, 6);
  engine.set_status(0, NodeStatus::kFailed);
  EXPECT_THROW(engine.set_status(0, NodeStatus::kActive), precondition_error);
}

TEST(Engine, RedundantStatusChangeIsNoop) {
  Engine engine(2, 6);
  std::vector<NodeId> log;
  auto instances = make_recorders(2, &log);
  auto* p0 = static_cast<RecordingProtocol*>(instances[0].get());
  engine.add_protocol_slot(std::move(instances));
  engine.set_status(0, NodeStatus::kActive);
  EXPECT_TRUE(p0->status_changes.empty());
}

class StopAfterObserver final : public Observer {
 public:
  explicit StopAfterObserver(Round stop_at) : stop_at_(stop_at) {}
  bool on_round_end(Engine&, Round round) override {
    ++calls;
    return round < stop_at_;
  }
  int calls = 0;

 private:
  Round stop_at_;
};

TEST(Engine, ObserverCanStopRun) {
  Engine engine(3, 8);
  std::vector<NodeId> log;
  engine.add_protocol_slot(make_recorders(3, &log));
  StopAfterObserver obs(4);
  engine.add_observer(&obs);
  const Round executed = engine.run(100);
  EXPECT_EQ(executed, 4u);
  EXPECT_EQ(obs.calls, 4);
  EXPECT_EQ(engine.current_round(), 4u);
}

TEST(Engine, RunExecutesRequestedRounds) {
  Engine engine(3, 9);
  std::vector<NodeId> log;
  engine.add_protocol_slot(make_recorders(3, &log));
  EXPECT_EQ(engine.run(7), 7u);
  EXPECT_EQ(log.size(), 21u);
}

TEST(Engine, ProtocolAtTypeMismatchThrows) {
  Engine engine(2, 10);
  std::vector<NodeId> log;
  engine.add_protocol_slot(make_recorders(2, &log));
  EXPECT_NO_THROW(engine.protocol_at<RecordingProtocol>(0, 0));
  class Other final : public Protocol {
    void execute(Engine&, NodeId) override {}
  };
  EXPECT_THROW(engine.protocol_at<Other>(0, 0), precondition_error);
}

TEST(Engine, ValidatesConstructionAndSlots) {
  EXPECT_THROW(Engine(0, 1), precondition_error);
  Engine engine(3, 1);
  std::vector<NodeId> log;
  EXPECT_THROW(engine.add_protocol_slot(make_recorders(2, &log)),
               precondition_error);
  EXPECT_THROW(engine.status(99), precondition_error);
}

TEST(NetworkStats, CountsMessagesAndBytes) {
  NetworkStats net;
  net.count_message(0, 1, 100);
  net.count_message(1, 0, 50);
  EXPECT_EQ(net.messages(), 2u);
  EXPECT_EQ(net.bytes(), 150u);
  net.reset();
  EXPECT_EQ(net.messages(), 0u);
}

TEST(NodeStatus, ToString) {
  EXPECT_STREQ(to_string(NodeStatus::kActive), "active");
  EXPECT_STREQ(to_string(NodeStatus::kSleeping), "sleeping");
  EXPECT_STREQ(to_string(NodeStatus::kFailed), "failed");
}

}  // namespace
}  // namespace glap::sim
