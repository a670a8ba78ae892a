#include "overlay/random_graph.hpp"

#include <gtest/gtest.h>

#include <set>

namespace glap::overlay {
namespace {

using sim::Engine;
using sim::NodeId;
using sim::NodeStatus;

TEST(RandomGraph, DegreeMatchesConfig) {
  Engine engine(40, 1);
  const auto slot = RandomGraphProtocol::install(engine, {.degree = 6}, 1);
  for (NodeId n = 0; n < 40; ++n) {
    const auto neighbors = engine.protocol_at(slot, n).neighbor_view();
    EXPECT_EQ(neighbors.size(), 6u);
    std::set<NodeId> unique(neighbors.begin(), neighbors.end());
    EXPECT_EQ(unique.size(), neighbors.size());
    EXPECT_EQ(unique.count(n), 0u);
  }
}

TEST(RandomGraph, DegreeCappedBySize) {
  Engine engine(4, 2);
  const auto slot = RandomGraphProtocol::install(engine, {.degree = 10}, 2);
  for (NodeId n = 0; n < 4; ++n)
    EXPECT_EQ(engine.protocol_at(slot, n).neighbor_view().size(), 3u);
}

TEST(RandomGraph, SamplesOnlyActivePeers) {
  Engine engine(20, 3);
  const auto slot = RandomGraphProtocol::install(engine, {.degree = 5}, 3);
  for (NodeId n = 10; n < 20; ++n) engine.set_status(n, NodeStatus::kSleeping);
  auto& node0 = engine.protocol_at(slot, 0);
  for (int i = 0; i < 30; ++i) {
    const auto peer = node0.sample_active_peer(engine, 0);
    if (peer) {
      EXPECT_TRUE(engine.is_active(*peer));
    }
  }
}

TEST(RandomGraph, SampleReturnsNulloptWhenAllNeighborsDead) {
  Engine engine(5, 4);
  const auto slot = RandomGraphProtocol::install(engine, {.degree = 4}, 4);
  for (NodeId n = 1; n < 5; ++n) engine.set_status(n, NodeStatus::kSleeping);
  auto& node0 = engine.protocol_at(slot, 0);
  EXPECT_EQ(node0.sample_active_peer(engine, 0), std::nullopt);
}

TEST(RandomGraph, ZeroDegreeRejected) {
  Engine engine(5, 5);
  EXPECT_THROW(RandomGraphProtocol::install(engine, {.degree = 0}, 5),
               precondition_error);
}

TEST(RandomGraph, NextCycleIsInert) {
  Engine engine(5, 6);
  const auto slot = RandomGraphProtocol::install(engine, {.degree = 2}, 6);
  const auto before = engine.protocol_at(slot, 0).neighbor_view();
  engine.run(10);
  const auto after = engine.protocol_at(slot, 0).neighbor_view();
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace glap::overlay
