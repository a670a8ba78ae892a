#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
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

 private:
  std::vector<NodeId>* log_;
};

Slot<RecordingProtocol> install_recorders(Engine& engine,
                                          std::vector<NodeId>* log) {
  return engine.add_protocol_pool<RecordingProtocol>(
      [&](NodeId, Slot<RecordingProtocol>) { return RecordingProtocol(log); });
}

TEST(Engine, EveryActiveNodeRunsOncePerRound) {
  Engine engine(10, 1);
  std::vector<NodeId> log;
  install_recorders(engine, &log);
  engine.step();
  EXPECT_EQ(log.size(), 10u);
  std::vector<NodeId> sorted = log;
  std::sort(sorted.begin(), sorted.end());
  for (NodeId i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Engine, OrderIsShuffledBetweenRounds) {
  Engine engine(50, 2);
  std::vector<NodeId> log;
  install_recorders(engine, &log);
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
    install_recorders(engine, &log_a);
    engine.step();
    engine.step();
  }
  {
    Engine engine(20, 7);
    install_recorders(engine, &log_b);
    engine.step();
    engine.step();
  }
  EXPECT_EQ(log_a, log_b);
}

TEST(Engine, SleepingNodesDoNotInitiate) {
  Engine engine(5, 3);
  std::vector<NodeId> log;
  install_recorders(engine, &log);
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

TEST(Engine, FailedNodesCannotRecover) {
  Engine engine(2, 6);
  engine.set_status(0, NodeStatus::kFailed);
  EXPECT_THROW(engine.set_status(0, NodeStatus::kActive), precondition_error);
}

TEST(Engine, RedundantStatusChangeIsNoop) {
  Engine engine(2, 6);
  engine.set_status(0, NodeStatus::kActive);
  EXPECT_EQ(engine.active_count(), 2u);
  engine.set_status(1, NodeStatus::kSleeping);
  engine.set_status(1, NodeStatus::kSleeping);
  EXPECT_EQ(engine.active_count(), 1u);
}

TEST(Engine, RunExecutesRequestedRounds) {
  Engine engine(3, 9);
  std::vector<NodeId> log;
  install_recorders(engine, &log);
  engine.run(7);
  EXPECT_EQ(engine.current_round(), 7u);
  EXPECT_EQ(log.size(), 21u);
}

/// An interface between Protocol and a concrete layer, the way
/// overlay::NeighborProvider sits between Protocol and Cyclon.
class Peer : public Protocol {
 public:
  virtual int id() const = 0;
};

class NumberedPeer final : public Peer {
 public:
  explicit NumberedPeer(int id) : id_(id) {}
  void execute(Engine&, NodeId) override {}
  int id() const override { return id_; }

 private:
  int id_;
};

/// True when `engine.protocol_at<As>(slot, node)` compiles for a slot
/// holding `Held`.
template <typename As, typename Held>
concept ViewableAs = requires(Engine& engine, Slot<Held> slot) {
  engine.template protocol_at<As>(slot, NodeId{0});
};

// A slot can be read as its own type or any base of it; asking it for an
// unrelated type, or a derived type it may not hold, does not compile.
static_assert(ViewableAs<RecordingProtocol, RecordingProtocol>);
static_assert(ViewableAs<Protocol, RecordingProtocol>);
static_assert(ViewableAs<Peer, NumberedPeer>);
static_assert(!ViewableAs<NumberedPeer, RecordingProtocol>);
static_assert(!ViewableAs<RecordingProtocol, NumberedPeer>);
static_assert(!ViewableAs<NumberedPeer, Peer>);
static_assert(std::is_convertible_v<Slot<NumberedPeer>, Slot<Peer>>);
static_assert(!std::is_convertible_v<Slot<Peer>, Slot<NumberedPeer>>);

TEST(Engine, ProtocolAtReadsASlotThroughItsBaseTypes) {
  Engine engine(3, 10);
  const Slot<NumberedPeer> slot = engine.add_protocol_pool<NumberedPeer>(
      [](NodeId node, Slot<NumberedPeer>) {
        return NumberedPeer(static_cast<int>(node) * 10);
      });
  const Slot<Peer> as_peer = slot;
  EXPECT_EQ(as_peer.index(), slot.index());
  for (NodeId node = 0; node < 3; ++node) {
    NumberedPeer& concrete = engine.protocol_at(slot, node);
    Peer& peer = engine.protocol_at(as_peer, node);
    EXPECT_EQ(&peer, &concrete);
    EXPECT_EQ(peer.id(), static_cast<int>(node) * 10);
  }
}

/// Keeps its own slot from construction and reaches its ring successor
/// through it.
class RingProtocol final : public Protocol {
 public:
  RingProtocol(Slot<RingProtocol> self, NodeId id) : self_(self), id_(id) {}
  void execute(Engine& engine, NodeId self) override {
    const auto next = static_cast<NodeId>((self + 1) % engine.node_count());
    engine.protocol_at(self_, next).last_caller = id_;
  }
  NodeId last_caller = kInvalidNode;

 private:
  Slot<RingProtocol> self_;
  NodeId id_;
};

TEST(Engine, PoolFactoryReceivesTheSlotItFills) {
  Engine engine(4, 11);
  std::vector<NodeId> log;
  const auto first = install_recorders(engine, &log);
  std::vector<std::size_t> seen;
  const auto ring = engine.add_protocol_pool<RingProtocol>(
      [&](NodeId node, Slot<RingProtocol> self) {
        seen.push_back(self.index());
        return RingProtocol(self, node);
      });
  EXPECT_EQ(first.index(), 0u);
  EXPECT_EQ(ring.index(), 1u);
  EXPECT_EQ(seen, std::vector<std::size_t>(4, ring.index()));

  // No post-install pass: the first round already reaches every peer.
  engine.step();
  for (NodeId node = 0; node < 4; ++node)
    EXPECT_EQ(engine.protocol_at(ring, node).last_caller, (node + 3) % 4);
}

TEST(Engine, ValidatesConstructionAndSlots) {
  EXPECT_THROW(Engine(0, 1), precondition_error);
  Engine engine(3, 1);
  EXPECT_THROW((void)engine.status(99), precondition_error);
}

TEST(NetworkStats, CountsMessagesAndBytes) {
  NetworkStats net;
  net.count_message(0, 1, 100);
  net.count_message(1, 0, 50);
  EXPECT_EQ(net.messages(), 2u);
  EXPECT_EQ(net.bytes(), 150u);
}

TEST(NodeStatus, ToString) {
  EXPECT_STREQ(to_string(NodeStatus::kActive), "active");
  EXPECT_STREQ(to_string(NodeStatus::kSleeping), "sleeping");
  EXPECT_STREQ(to_string(NodeStatus::kFailed), "failed");
}

}  // namespace
}  // namespace glap::sim
