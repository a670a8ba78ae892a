#include "core/gossip_learning.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/glap.hpp"
#include "overlay/cyclon.hpp"
#include "trace/google_synth.hpp"

namespace glap::core {
namespace {

struct TestBed {
  cloud::DataCenter dc;
  sim::Engine engine;
  sim::Slot<overlay::CyclonProtocol> overlay;
  sim::Slot<GossipLearningProtocol> learning;

  TestBed(std::size_t pms, std::size_t vms, const GlapConfig& config,
          std::uint64_t seed)
      : dc(pms, vms, cloud::DataCenterConfig{}),
        engine(pms, seed),
        overlay(overlay::CyclonProtocol::install(engine, seed)),
        learning(GossipLearningProtocol::install(engine, config, dc, overlay,
                                                 seed)) {
    Rng placement(hash_combine(seed, hash_tag("placement")));
    dc.place_randomly(placement);
  }

  /// Every VM at 90% CPU. Placement fits at most five 500-MIPS VMs on a
  /// 2660-MIPS PM, so with five VMs per PM every PM averages 4.5 x 500 /
  /// 2660 ≈ 0.85 CPU, above kLearningUtilThreshold: no PM trains.
  void load_every_pm() {
    dc.observe_demands(std::vector<Resources>(dc.vm_count(), {0.9, 0.3}));
  }

  void advance_demands(std::uint64_t seed, std::uint32_t round) {
    std::vector<Resources> demands(dc.vm_count());
    Rng rng(hash_combine(seed, round));
    for (auto& d : demands) d = {rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.6)};
    dc.observe_demands(demands);
  }

  GossipLearningProtocol& node(sim::NodeId id) {
    return engine.protocol_at(learning, id);
  }

  double mean_similarity() {
    RunningStats stats;
    const auto n = static_cast<sim::NodeId>(engine.node_count());
    for (sim::NodeId a = 0; a < n; ++a)
      stats.add(cosine_similarity(node(a).tables(),
                                  node((a + 1) % n).tables()));
    return stats.mean();
  }
};

GlapConfig short_phases() {
  GlapConfig config;
  config.learning_rounds = 10;
  config.aggregation_rounds = 30;
  config.consolidation_start_round = 40;
  return config;
}

TEST(GossipLearning, PhaseProgression) {
  GlapConfig config = short_phases();
  TestBed bed(20, 40, config, 1);
  EXPECT_EQ(bed.node(0).phase(), GossipLearningProtocol::Phase::kLearning);
  for (std::uint32_t r = 0; r < 10; ++r) {
    bed.advance_demands(1, r);
    bed.engine.step();
  }
  EXPECT_EQ(bed.node(0).phase(),
            GossipLearningProtocol::Phase::kAggregation);
  for (std::uint32_t r = 10; r < 40; ++r) {
    bed.advance_demands(1, r);
    bed.engine.step();
  }
  EXPECT_EQ(bed.node(0).phase(), GossipLearningProtocol::Phase::kIdle);
}

TEST(GossipLearning, LearningPhaseProducesLocalTables) {
  GlapConfig config = short_phases();
  TestBed bed(20, 40, config, 2);
  for (std::uint32_t r = 0; r < 10; ++r) {
    bed.advance_demands(2, r);
    bed.engine.step();
  }
  std::size_t populated = 0;
  for (sim::NodeId n = 0; n < 20; ++n)
    if (!bed.node(n).tables().empty()) ++populated;
  EXPECT_GT(populated, 10u);
}

TEST(GossipLearning, AggregationUnifiesTables) {
  GlapConfig config = short_phases();
  TestBed bed(30, 60, config, 3);
  for (std::uint32_t r = 0; r < 10; ++r) {
    bed.advance_demands(3, r);
    bed.engine.step();
  }
  const double similarity_after_learning = bed.mean_similarity();
  for (std::uint32_t r = 10; r < 40; ++r) {
    bed.advance_demands(3, r);
    bed.engine.step();
  }
  const double similarity_after_aggregation = bed.mean_similarity();
  // The Fig. 5 behaviour: learning alone leaves tables dissimilar;
  // gossip aggregation converges them to (near-)identical.
  EXPECT_LT(similarity_after_learning, 0.95);
  EXPECT_GT(similarity_after_aggregation, 0.999);
  EXPECT_GT(similarity_after_aggregation, similarity_after_learning);
}

TEST(GossipLearning, HighlyLoadedPmsSkipTraining) {
  TestBed bed(10, 50, short_phases(), 4);
  for (std::uint32_t r = 0; r < 10; ++r) {
    bed.load_every_pm();
    bed.engine.step();
  }
  for (sim::NodeId n = 0; n < 10; ++n)
    EXPECT_TRUE(bed.node(n).tables().empty());
}

TEST(GossipLearning, MergeIsPairwiseSymmetric) {
  GlapConfig config = short_phases();
  TestBed bed(2, 4, config, 5);
  // Hand-inject different tables, then run one aggregation exchange.
  bed.node(0).tables_mutable().out.set(
      {qlearn::Level::kLow, qlearn::Level::kLow},
      {qlearn::Level::kLow, qlearn::Level::kLow}, 4.0);
  bed.node(1).tables_mutable().out.set(
      {qlearn::Level::kLow, qlearn::Level::kLow},
      {qlearn::Level::kLow, qlearn::Level::kLow}, 8.0);
  // Skip straight to aggregation by stepping through learning rounds with
  // empty demand influence.
  for (std::uint32_t r = 0; r < 12; ++r) {
    bed.advance_demands(5, r);
    bed.engine.step();
  }
  const double v0 = bed.node(0).tables().out.value(
      {qlearn::Level::kLow, qlearn::Level::kLow},
      {qlearn::Level::kLow, qlearn::Level::kLow});
  const double v1 = bed.node(1).tables().out.value(
      {qlearn::Level::kLow, qlearn::Level::kLow},
      {qlearn::Level::kLow, qlearn::Level::kLow});
  EXPECT_DOUBLE_EQ(v0, v1);
}

TEST(GossipLearning, PushPullPartnersShareOneTableUntilOneWrites) {
  GlapConfig config = short_phases();
  config.learning_rounds = 0;  // the first round aggregates
  config.aggregation_rounds = 1;
  TestBed bed(2, 4, config, 5);
  const qlearn::State s{qlearn::Level::kLow, qlearn::Level::kLow};
  const qlearn::Action a{qlearn::Level::kLow, qlearn::Level::kLow};
  bed.node(0).tables_mutable().out.set(s, a, 4.0);
  bed.node(0).tables_mutable().in.set(s, a, -1.0);
  bed.node(1).tables_mutable().out.set(s, a, 8.0);
  bed.node(1).tables_mutable().in.set(s, a, -3.0);
  bed.advance_demands(5, 0);
  bed.engine.step();

  const QTablePair& first = bed.node(0).tables();
  const QTablePair& second = bed.node(1).tables();
  EXPECT_EQ(first.out.value(s, a), 6.0);
  EXPECT_TRUE(first.out.shares_storage_with(second.out));
  EXPECT_TRUE(first.in.shares_storage_with(second.in));

  // A later write on one side leaves the other side's entries as they
  // were.
  const std::vector<double> out_before = second.out.dense();
  const std::vector<double> in_before = second.in.dense();
  bed.node(0).tables_mutable().out.update(s, a, 100.0, s, {});
  bed.node(0).tables_mutable().in.set(s, qlearn::Action{qlearn::Level::kHigh,
                                                        qlearn::Level::kLow},
                                      7.0);
  EXPECT_NE(first.out.value(s, a), 6.0);
  EXPECT_FALSE(first.out.shares_storage_with(second.out));
  EXPECT_FALSE(first.in.shares_storage_with(second.in));
  EXPECT_EQ(second.out.dense(), out_before);
  EXPECT_EQ(second.in.dense(), in_before);
}

// The per-PM learning object holds handles, not storage: a presence
// bitmap (~1 KiB per table) or a round-loop buffer moving back into it
// breaks this bound.
static_assert(sizeof(GossipLearningProtocol) <= 192);

TEST(GossipLearning, AggregationPreservesValueScale) {
  // Gossip averaging keeps values within the convex hull of initial ones.
  // Every PM is loaded past the training threshold: no fresh training
  // noise.
  TestBed bed(16, 80, short_phases(), 6);
  const qlearn::State s{qlearn::Level::kMedium, qlearn::Level::kLow};
  const qlearn::Action a{qlearn::Level::kHigh, qlearn::Level::kLow};
  for (sim::NodeId n = 0; n < 16; ++n)
    bed.node(n).tables_mutable().in.set(s, a, static_cast<double>(n));
  for (std::uint32_t r = 0; r < 40; ++r) {
    bed.load_every_pm();
    bed.engine.step();
  }
  for (sim::NodeId n = 0; n < 16; ++n) {
    const double v = bed.node(n).tables().in.value(s, a);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 15.0);
  }
  // And they agree.
  EXPECT_GT(bed.mean_similarity(), 0.999);
}

TEST(GossipLearning, InstallValidatesNodeMapping) {
  cloud::DataCenter dc(4, 8, cloud::DataCenterConfig{});
  sim::Engine engine(5, 1);  // mismatch: 5 nodes vs 4 PMs
  const auto overlay = overlay::CyclonProtocol::install(engine, 1);
  EXPECT_THROW(
      GossipLearningProtocol::install(engine, GlapConfig{}, dc, overlay, 1),
      precondition_error);
}

}  // namespace
}  // namespace glap::core
