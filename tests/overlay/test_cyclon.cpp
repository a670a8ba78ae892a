#include "overlay/cyclon.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <queue>
#include <set>

namespace glap::overlay {
namespace {

using sim::Engine;
using sim::NodeId;
using sim::NodeStatus;

CyclonProtocol& instance(Engine& engine, Engine::ProtocolSlot slot,
                         NodeId node) {
  return engine.protocol_at<CyclonProtocol>(slot, node);
}

/// BFS over the directed neighbor graph from node 0.
std::size_t reachable_from_zero(Engine& engine, Engine::ProtocolSlot slot) {
  std::set<NodeId> visited{0};
  std::queue<NodeId> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    const NodeId node = frontier.front();
    frontier.pop();
    for (NodeId next : instance(engine, slot, node).neighbor_view()) {
      if (visited.insert(next).second) frontier.push(next);
    }
  }
  return visited.size();
}

TEST(Cyclon, BootstrapFillsCache) {
  Engine engine(50, 1);
  const auto slot = CyclonProtocol::install(engine, {}, 1);
  for (NodeId n = 0; n < 50; ++n) {
    const auto& cache = instance(engine, slot, n).cache();
    EXPECT_GT(cache.size(), 0u);
    EXPECT_LE(cache.size(), CyclonConfig{}.cache_size);
  }
}

TEST(Cyclon, ConfigValidation) {
  EXPECT_THROW(CyclonProtocol({.cache_size = 0}, Rng(1)), precondition_error);
  EXPECT_THROW(
      CyclonProtocol({.cache_size = 4, .shuffle_length = 5}, Rng(1)),
      precondition_error);
  EXPECT_THROW(CyclonProtocol({.shuffle_length = 0}, Rng(1)),
               precondition_error);
}

TEST(Cyclon, InvariantsHoldOverManyRounds) {
  Engine engine(60, 2);
  CyclonConfig config{.cache_size = 8, .shuffle_length = 4};
  const auto slot = CyclonProtocol::install(engine, config, 2);
  engine.run(50);
  for (NodeId n = 0; n < 60; ++n) {
    const auto& cache = instance(engine, slot, n).cache();
    EXPECT_LE(cache.size(), config.cache_size);
    std::set<NodeId> ids;
    for (const auto& entry : cache) {
      EXPECT_NE(entry.id, n) << "self-link in cache of node " << n;
      EXPECT_TRUE(ids.insert(entry.id).second)
          << "duplicate neighbor " << entry.id << " at node " << n;
      EXPECT_LT(entry.id, 60u);
    }
  }
}

TEST(Cyclon, OverlayStaysConnected) {
  Engine engine(80, 3);
  const auto slot = CyclonProtocol::install(engine, {}, 3);
  engine.run(30);
  EXPECT_EQ(reachable_from_zero(engine, slot), 80u);
}

TEST(Cyclon, InDegreeStaysBalanced) {
  Engine engine(100, 4);
  CyclonConfig config{.cache_size = 10, .shuffle_length = 5};
  const auto slot = CyclonProtocol::install(engine, config, 4);
  engine.run(60);
  std::vector<int> indegree(100, 0);
  for (NodeId n = 0; n < 100; ++n)
    for (NodeId neighbor : instance(engine, slot, n).neighbor_view())
      ++indegree[neighbor];
  // Random-graph-like overlays keep in-degree near the cache size; a
  // star/hub topology would concentrate it.
  for (int d : indegree) EXPECT_LT(d, 40);
  const int total = std::accumulate(indegree.begin(), indegree.end(), 0);
  EXPECT_NEAR(static_cast<double>(total) / 100.0, 10.0, 2.0);
}

TEST(Cyclon, SampleReturnsActivePeer) {
  Engine engine(30, 5);
  const auto slot = CyclonProtocol::install(engine, {}, 5);
  engine.run(5);
  auto& node0 = instance(engine, slot, 0);
  for (int i = 0; i < 50; ++i) {
    const auto peer = node0.sample_active_peer(engine, 0);
    ASSERT_TRUE(peer.has_value());
    EXPECT_TRUE(engine.is_active(*peer));
    EXPECT_NE(*peer, 0u);
  }
}

TEST(Cyclon, SamplePrunesDeadPeers) {
  Engine engine(10, 6);
  const auto slot = CyclonProtocol::install(engine, {}, 6);
  engine.run(5);
  // Put everyone but node 0 to sleep: sampling must eventually return
  // nullopt and leave the cache empty of dead entries it touched.
  for (NodeId n = 1; n < 10; ++n) engine.set_status(n, NodeStatus::kSleeping);
  auto& node0 = instance(engine, slot, 0);
  EXPECT_EQ(node0.sample_active_peer(engine, 0), std::nullopt);
  EXPECT_TRUE(node0.cache().empty());
}

TEST(Cyclon, HealsAroundFailedNodes) {
  Engine engine(60, 7);
  const auto slot = CyclonProtocol::install(engine, {}, 7);
  engine.run(10);
  // Fail a third of the overlay.
  for (NodeId n = 40; n < 60; ++n) engine.set_status(n, NodeStatus::kFailed);
  engine.run(40);
  // Live nodes should have pruned (most) dead entries through shuffle
  // retries and keep a usable active-neighbor supply.
  for (NodeId n = 0; n < 40; ++n) {
    auto& proto = instance(engine, slot, n);
    const auto peer = proto.sample_active_peer(engine, n);
    ASSERT_TRUE(peer.has_value()) << "node " << n << " has no live neighbor";
    EXPECT_LT(*peer, 40u);
  }
}

TEST(Cyclon, AgesIncreaseWithoutContact) {
  Engine engine(5, 8);
  CyclonConfig config{.cache_size = 4, .shuffle_length = 2};
  const auto slot = CyclonProtocol::install(engine, config, 8);
  auto& node0 = instance(engine, slot, 0);
  // Directly drive only node 0's cycle: all its entries age.
  const auto before = node0.cache();
  node0.execute(engine, 0);
  // After one cycle, any surviving original entry has age >= 1 unless it
  // was refreshed by the shuffle reply.
  const auto after = node0.cache();
  EXPECT_FALSE(after.empty());
  (void)before;
}

TEST(Cyclon, RemoveNeighborDeletesAllEntries) {
  CyclonProtocol proto({.cache_size = 4, .shuffle_length = 2}, Rng(1));
  proto.bootstrap(0, {1, 2, 3});
  proto.remove_neighbor(2);
  for (const auto& e : proto.cache()) EXPECT_NE(e.id, 2u);
  EXPECT_EQ(proto.cache().size(), 2u);
}

TEST(Cyclon, BootstrapIgnoresSelfAndDuplicates) {
  CyclonProtocol proto({.cache_size = 8, .shuffle_length = 2}, Rng(1));
  proto.bootstrap(0, {0, 1, 1, 2});
  EXPECT_EQ(proto.cache().size(), 2u);
}

TEST(Cyclon, HandleShuffleReturnsSubsetAndLearnsInitiator) {
  CyclonProtocol proto({.cache_size = 8, .shuffle_length = 3}, Rng(2));
  proto.bootstrap(5, {1, 2, 3, 4});
  std::vector<CyclonProtocol::Entry> incoming{{7, 0}, {8, 1}};
  const auto reply = proto.handle_shuffle(5, 9, incoming);
  EXPECT_LE(reply.size(), 3u);
  bool knows_initiator = false;
  for (const auto& e : proto.cache())
    if (e.id == 9) knows_initiator = true;
  EXPECT_TRUE(knows_initiator);
}

TEST(Cyclon, SingleNodeOverlayIsDegenerate) {
  Engine engine(1, 9);
  const auto slot = CyclonProtocol::install(engine, {}, 9);
  engine.run(3);
  auto& only = instance(engine, slot, 0);
  EXPECT_TRUE(only.cache().empty());
  EXPECT_EQ(only.sample_active_peer(engine, 0), std::nullopt);
}

}  // namespace
}  // namespace glap::overlay
