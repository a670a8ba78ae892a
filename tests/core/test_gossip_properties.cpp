// Property tests backing the paper's §IV-C convergence analysis
// (Theorem 1): gossip aggregation is pairwise averaging, so for a key
// every node holds, the global mean is an exact invariant of the process
// and the cross-node variance contracts monotonically toward 0.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/glap.hpp"
#include "overlay/cyclon.hpp"

namespace glap::core {
namespace {

GlapConfig aggregation_only() {
  GlapConfig config;
  config.learning_rounds = 0;
  config.aggregation_rounds = 1000;
  return config;
}

struct Bed {
  cloud::DataCenter dc;
  sim::Engine engine;
  sim::Slot<GossipLearningProtocol> learning;
  std::size_t n;

  explicit Bed(std::size_t nodes, std::uint64_t seed)
      : dc(nodes, nodes * 2, cloud::DataCenterConfig{}),
        engine(nodes, seed),
        learning(GossipLearningProtocol::install(
            engine, aggregation_only(), dc,
            overlay::CyclonProtocol::install(engine, seed), seed)),
        n(nodes) {
    Rng rng(seed);
    dc.place_randomly(rng);
    std::vector<Resources> demands(nodes * 2, Resources{0.3, 0.3});
    dc.observe_demands(demands);
  }

  GossipLearningProtocol& node(sim::NodeId id) {
    return engine.protocol_at(learning, id);
  }

  RunningStats values(qlearn::State s, qlearn::Action a) {
    RunningStats stats;
    for (sim::NodeId i = 0; i < n; ++i)
      stats.add(node(i).tables().in.value(s, a));
    return stats;
  }
};

const qlearn::State kS{qlearn::Level::kHigh, qlearn::Level::kMedium};
const qlearn::Action kA{qlearn::Level::kMedium, qlearn::Level::kLow};

TEST(GossipAveraging, GlobalMeanIsInvariant) {
  Bed bed(32, 11);
  Rng rng(1);
  for (sim::NodeId i = 0; i < 32; ++i)
    bed.node(i).tables_mutable().in.set(kS, kA, rng.uniform(-50.0, 50.0));
  const double initial_mean = bed.values(kS, kA).mean();
  for (int round = 0; round < 30; ++round) bed.engine.step();
  EXPECT_NEAR(bed.values(kS, kA).mean(), initial_mean, 1e-9);
}

TEST(GossipAveraging, VarianceContractsMonotonically) {
  Bed bed(32, 12);
  Rng rng(2);
  for (sim::NodeId i = 0; i < 32; ++i)
    bed.node(i).tables_mutable().in.set(kS, kA, rng.uniform(0.0, 100.0));
  double prev_variance = bed.values(kS, kA).variance();
  for (int round = 0; round < 20; ++round) {
    bed.engine.step();
    const double variance = bed.values(kS, kA).variance();
    ASSERT_LE(variance, prev_variance + 1e-9) << "round " << round;
    prev_variance = variance;
  }
  // And it contracts a lot: exponential decay over 20 rounds.
  EXPECT_LT(prev_variance, 1.0);
}

TEST(GossipAveraging, UnionDisseminatesRareKeys) {
  // A key only one node holds must reach every node (union semantics).
  Bed bed(32, 13);
  bed.node(7).tables_mutable().out.set(kS, kA, 42.0);
  for (int round = 0; round < 25; ++round) bed.engine.step();
  for (sim::NodeId i = 0; i < 32; ++i)
    EXPECT_TRUE(bed.node(i).tables().out.contains(kS, kA))
        << "node " << i << " never learned the rare key";
}

TEST(GossipAveraging, ConvergedValueWithinInitialHull) {
  Bed bed(24, 14);
  for (sim::NodeId i = 0; i < 24; ++i)
    bed.node(i).tables_mutable().in.set(kS, kA,
                                        static_cast<double>(i) - 10.0);
  for (int round = 0; round < 40; ++round) bed.engine.step();
  const RunningStats stats = bed.values(kS, kA);
  EXPECT_GE(stats.min(), -10.0 - 1e-9);
  EXPECT_LE(stats.max(), 13.0 + 1e-9);
  // All nodes agree tightly.
  EXPECT_LT(stats.max() - stats.min(), 0.5);
}

}  // namespace
}  // namespace glap::core
