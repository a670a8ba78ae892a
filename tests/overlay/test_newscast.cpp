#include "overlay/newscast.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <queue>
#include <set>

namespace glap::overlay {
namespace {

using sim::Engine;
using sim::NodeId;
using sim::NodeStatus;

NewscastProtocol& instance(Engine& engine, sim::Slot<NewscastProtocol> slot,
                           NodeId node) {
  return engine.protocol_at(slot, node);
}

std::size_t reachable_from_zero(Engine& engine,
                                sim::Slot<NewscastProtocol> slot) {
  std::set<NodeId> visited{0};
  std::queue<NodeId> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    const NodeId node = frontier.front();
    frontier.pop();
    for (NodeId next : instance(engine, slot, node).neighbor_view())
      if (visited.insert(next).second) frontier.push(next);
  }
  return visited.size();
}

TEST(Newscast, BootstrapFillsCache) {
  Engine engine(40, 1);
  const auto slot = NewscastProtocol::install(engine, 1);
  for (NodeId n = 0; n < 40; ++n)
    EXPECT_GT(instance(engine, slot, n).cache().size(), 0u);
}

TEST(Newscast, InvariantsHoldOverRounds) {
  Engine engine(50, 2);
  const auto slot = NewscastProtocol::install(engine, 2);
  engine.run(40);
  for (NodeId n = 0; n < 50; ++n) {
    const auto& cache = instance(engine, slot, n).cache();
    EXPECT_LE(cache.size(), NewscastProtocol::kCacheSize);
    std::set<NodeId> ids;
    for (const auto& item : cache) {
      EXPECT_NE(item.id, n);
      EXPECT_TRUE(ids.insert(item.id).second);
    }
  }
}

TEST(Newscast, TimestampsStayFresh) {
  Engine engine(50, 3);
  const auto slot = NewscastProtocol::install(engine, 3);
  engine.run(60);
  // Freshness-driven replacement: after many rounds no cache holds
  // entries older than a small window.
  const auto now = engine.current_round();
  for (NodeId n = 0; n < 50; ++n)
    for (const auto& item : instance(engine, slot, n).cache())
      EXPECT_GT(item.timestamp + 20, now)
          << "stale item at node " << n;
}

TEST(Newscast, OverlayStaysConnected) {
  Engine engine(60, 4);
  const auto slot = NewscastProtocol::install(engine, 4);
  engine.run(30);
  EXPECT_EQ(reachable_from_zero(engine, slot), 60u);
}

TEST(Newscast, SamplesOnlyActivePeers) {
  Engine engine(20, 5);
  const auto slot = NewscastProtocol::install(engine, 5);
  engine.run(5);
  for (NodeId n = 10; n < 20; ++n) engine.set_status(n, NodeStatus::kSleeping);
  auto& node0 = instance(engine, slot, 0);
  for (int i = 0; i < 20; ++i) {
    const auto peer = node0.sample_active_peer(engine, 0);
    if (peer) {
      EXPECT_TRUE(engine.is_active(*peer));
    }
  }
}

TEST(Newscast, HealsAroundFailedNodes) {
  Engine engine(40, 6);
  const auto slot = NewscastProtocol::install(engine, 6);
  engine.run(10);
  for (NodeId n = 30; n < 40; ++n) engine.set_status(n, NodeStatus::kFailed);
  engine.run(30);
  for (NodeId n = 0; n < 30; ++n) {
    const auto peer =
        instance(engine, slot, n).sample_active_peer(engine, n);
    ASSERT_TRUE(peer.has_value());
    EXPECT_LT(*peer, 30u);
  }
}

TEST(Newscast, HandleExchangeLearnsInitiator) {
  // A one-node overlay bootstraps an empty cache.
  Engine engine(1, 7);
  auto& proto = instance(engine, NewscastProtocol::install(engine, 7), 0);
  proto.bootstrap(5, {1, 2});
  const auto reply = proto.handle_exchange(5, 9, {{3, 4}}, 10);
  EXPECT_EQ(reply.size(), 3u);  // snapshot of 2 items + fresh self entry
  bool knows_initiator = false;
  for (const auto& item : proto.cache())
    if (item.id == 9) knows_initiator = true;
  EXPECT_TRUE(knows_initiator);
}

}  // namespace
}  // namespace glap::overlay
