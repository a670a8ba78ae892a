#include "core/consolidation.hpp"

#include <gtest/gtest.h>

#include "core/glap.hpp"
#include "overlay/random_graph.hpp"

namespace glap::core {
namespace {

using qlearn::Level;

GlapConfig immediate_config() {
  GlapConfig config;
  config.learning_rounds = 0;
  config.aggregation_rounds = 0;
  config.consolidation_start_round = 0;
  return config;
}

/// A consolidation testbed with hand-seeded Q-tables: learning phases are
/// disabled (0 rounds) so the protocol activates immediately, and the
/// static random-graph overlay makes the pairing dense.
struct TestBed {
  cloud::DataCenter dc;
  sim::Engine engine;
  GlapConfig config;
  GlapSlots slots;

  TestBed(std::size_t pms, std::size_t vms, std::uint64_t seed)
      : dc(pms, vms, cloud::DataCenterConfig{}),
        engine(pms, seed),
        config(immediate_config()),
        slots(install_glap_on(engine, dc, config,
                              overlay::RandomGraphProtocol::install(
                                  engine, {.degree = pms - 1}, seed),
                              seed)) {}

  /// Seeds every node's Q-tables: OUT prefers any action; IN accepts all
  /// (state, action) pairs except those whose CPU state level is at least
  /// `reject_from_level` (value -1).
  void seed_tables(int reject_from_level) {
    for (sim::NodeId n = 0; n < engine.node_count(); ++n) {
      auto& tables = engine.protocol_at(slots.learning, n).tables_mutable();
      for (std::uint16_t s = 0; s < qlearn::kLevelPairCount; ++s) {
        for (std::uint16_t a = 0; a < qlearn::kLevelPairCount; ++a) {
          const auto state = qlearn::State::from_index(s);
          const auto action = qlearn::Action::from_index(a);
          tables.out.set(state, action, 1.0);
          const bool reject =
              static_cast<int>(qlearn::level_index(state.cpu)) >=
              reject_from_level;
          tables.in.set(state, action, reject ? -1.0 : 1.0);
        }
      }
    }
  }

  void set_demands(const std::vector<Resources>& demands) {
    dc.observe_demands(demands);
  }

  const ConsolidationStats& stats(sim::NodeId n) {
    return engine.protocol_at(slots.consolidation, n).stats();
  }
};

TEST(Consolidation, DrainsLessUtilizedPmToSleep) {
  TestBed bed(2, 3, 1);
  bed.dc.place(0, 0);
  bed.dc.place(1, 1);
  bed.dc.place(2, 1);
  bed.seed_tables(/*reject_from_level=*/9);  // accept everything
  bed.set_demands({{0.3, 0.3}, {0.3, 0.3}, {0.3, 0.3}});
  bed.engine.step();
  // PM 0 (1 VM) is less utilized: it drains to PM 1 and sleeps.
  EXPECT_EQ(bed.dc.pm(0).vm_count(), 0u);
  EXPECT_EQ(bed.dc.pm(1).vm_count(), 3u);
  EXPECT_FALSE(bed.dc.pm_on(0));
  EXPECT_FALSE(bed.engine.is_active(0));
}

TEST(Consolidation, PiInRejectionBlocksMigration) {
  TestBed bed(2, 3, 2);
  bed.dc.place(0, 0);
  bed.dc.place(1, 1);
  bed.dc.place(2, 1);
  bed.seed_tables(/*reject_from_level=*/0);  // reject everything
  bed.set_demands({{0.3, 0.3}, {0.3, 0.3}, {0.3, 0.3}});
  bed.engine.step();
  EXPECT_EQ(bed.dc.pm(0).vm_count(), 1u);
  EXPECT_EQ(bed.dc.pm(1).vm_count(), 2u);
  EXPECT_TRUE(bed.dc.pm_on(0));
  std::uint64_t rejects = 0;
  for (sim::NodeId n = 0; n < 2; ++n)
    rejects += bed.stats(n).rejected_by_pi_in;
  EXPECT_GT(rejects, 0u);
}

TEST(Consolidation, OverloadedPmShedsUntilRelieved) {
  TestBed bed(2, 8, 3);
  for (cloud::VmId v = 0; v < 7; ++v) bed.dc.place(v, 0);
  bed.dc.place(7, 1);
  bed.seed_tables(9);
  // 7 VMs at 80% CPU = 2800 MIPS > 2660: PM 0 overloaded.
  std::vector<Resources> demands(8, Resources{0.8, 0.3});
  bed.set_demands(demands);
  ASSERT_TRUE(bed.dc.overloaded(0));
  bed.engine.step();
  EXPECT_FALSE(bed.dc.overloaded(0));
  // Only enough VMs moved to clear the overload, not a full drain:
  // the overload path stops as soon as the PM is relieved.
  EXPECT_GE(bed.dc.pm(0).vm_count(), 5u);
}

TEST(Consolidation, PartnerSimilarityIsMeasuredOnlyWithQuiescenceOn) {
  // π_in rejects every move, so every exchange is calm and the streak
  // passes idle_rounds within 10 rounds. Only the quiescence vote reads
  // the partner cosine, so with quiescence off nothing computes it.
  for (const bool quiescence : {false, true}) {
    TestBed bed(2, 3, 9);
    if (quiescence) bed.engine.enable_quiescence();
    bed.dc.place(0, 0);
    bed.dc.place(1, 1);
    bed.dc.place(2, 1);
    bed.seed_tables(/*reject_from_level=*/0);
    bed.set_demands({{0.3, 0.3}, {0.3, 0.3}, {0.3, 0.3}});
    for (int round = 0; round < 10; ++round) bed.engine.step();
    ASSERT_EQ(bed.dc.total_migrations(), 0u);
    for (sim::NodeId n = 0; n < 2; ++n) {
      const double similarity =
          bed.engine.protocol_at(bed.slots.consolidation, n)
              .last_partner_similarity();
      if (quiescence)
        EXPECT_NEAR(similarity, 1.0, 1e-12) << "node " << n;
      else
        EXPECT_EQ(similarity, -2.0) << "node " << n;
    }
  }
}

TEST(Consolidation, CapacityGateBlocksMigration) {
  TestBed bed(2, 10, 4);
  for (cloud::VmId v = 0; v < 5; ++v) bed.dc.place(v, 0);
  for (cloud::VmId v = 5; v < 10; ++v) bed.dc.place(v, 1);
  bed.seed_tables(9);
  // Both PMs at 5 x 0.9 x 500 = 2250 MIPS; no VM fits anywhere else
  // (2250 + 450 > 2660 only allows... 2700 > 2660 -> blocked).
  std::vector<Resources> demands(10, Resources{0.9, 0.3});
  bed.set_demands(demands);
  bed.engine.step();
  EXPECT_EQ(bed.dc.pm(0).vm_count(), 5u);
  EXPECT_EQ(bed.dc.pm(1).vm_count(), 5u);
  std::uint64_t capacity_rejects = 0;
  for (sim::NodeId n = 0; n < 2; ++n)
    capacity_rejects += bed.stats(n).rejected_by_capacity;
  EXPECT_GT(capacity_rejects, 0u);
}

TEST(Consolidation, WaitsForConfiguredStartRound) {
  TestBed bed(2, 2, 5);
  // Rebuild with a delayed start.
  cloud::DataCenter dc(2, 2, cloud::DataCenterConfig{});
  sim::Engine engine(2, 5);
  GlapConfig config;
  config.learning_rounds = 0;
  config.aggregation_rounds = 0;
  config.consolidation_start_round = 3;
  const auto overlay =
      overlay::RandomGraphProtocol::install(engine, {.degree = 1}, 5);
  const auto learning =
      GossipLearningProtocol::install(engine, config, dc, overlay, 5);
  GlapConsolidationProtocol::install(engine, config, dc, {overlay, learning},
                                     5);
  dc.place(0, 0);
  dc.place(1, 1);
  std::vector<Resources> demands(2, Resources{0.2, 0.2});
  for (int round = 0; round < 3; ++round) {
    dc.observe_demands(demands);
    engine.step();
    // Nothing may move before the start round.
    EXPECT_EQ(dc.total_migrations(), 0u) << "round " << round;
  }
  dc.observe_demands(demands);
  engine.step();
  EXPECT_GT(dc.total_migrations(), 0u);
}

TEST(Consolidation, SingleActivePmDoesNothing) {
  TestBed bed(2, 2, 6);
  bed.dc.place(0, 0);
  bed.dc.place(1, 0);
  bed.seed_tables(9);
  bed.dc.set_power(1, cloud::PmPower::kSleep);
  bed.engine.set_status(1, sim::NodeStatus::kSleeping);
  bed.set_demands({{0.3, 0.3}, {0.3, 0.3}});
  bed.engine.step();
  EXPECT_EQ(bed.dc.total_migrations(), 0u);
  EXPECT_TRUE(bed.dc.pm_on(0));
}

TEST(Consolidation, EmptyTablesStillConsolidate) {
  // Unknown Q-values read as 0: pi_in accepts (>= 0) and pi_out picks an
  // arbitrary available action — consolidation still proceeds (the paper
  // notes PMs without Q-values simply act on defaults until aggregation
  // fills them in).
  TestBed bed(2, 2, 7);
  bed.dc.place(0, 0);
  bed.dc.place(1, 1);
  bed.set_demands({{0.2, 0.2}, {0.2, 0.2}});
  bed.engine.step();
  EXPECT_EQ(bed.dc.active_pm_count(), 1u);
}

TEST(Consolidation, StatsCountExchanges) {
  TestBed bed(4, 4, 8);
  for (cloud::VmId v = 0; v < 4; ++v) bed.dc.place(v, v);
  bed.seed_tables(9);
  std::vector<Resources> demands(4, Resources{0.3, 0.3});
  bed.set_demands(demands);
  bed.engine.step();
  std::uint64_t exchanges = 0;
  for (sim::NodeId n = 0; n < 4; ++n) exchanges += bed.stats(n).exchanges;
  EXPECT_GT(exchanges, 0u);
}

}  // namespace
}  // namespace glap::core
