#include "core/learning.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/qtable_pair.hpp"

namespace glap::core {
namespace {

constexpr Resources kPmCapacity{2660.0, 4096.0};

VmProfile profile(double cur_cpu, double avg_cpu, double cur_mem = 0.3,
                  double avg_mem = 0.3) {
  const Resources alloc{500.0, 613.0};
  return {Resources{cur_cpu, cur_mem}.scaled_by(alloc),
          Resources{avg_cpu, avg_mem}.scaled_by(alloc), alloc};
}

TEST(VmProfile, ActionUsesVmRelativeLevels) {
  const VmProfile p = profile(0.85, 0.45);
  EXPECT_EQ(p.action(/*use_average=*/true),
            (qlearn::LevelPair{qlearn::Level::kHigh, qlearn::Level::kMedium}));
  EXPECT_EQ(p.action(/*use_average=*/false),
            (qlearn::LevelPair{qlearn::Level::k4xHigh,
                               qlearn::Level::kMedium}));
}

TEST(StateOfProfiles, AggregatesOverPmCapacity) {
  // Two VMs at 100% of 500 MIPS on a 2660 MIPS PM: 1000/2660 ~ 0.376.
  std::vector<VmProfile> profiles{profile(1.0, 1.0), profile(1.0, 1.0)};
  const auto state = state_of_profiles(profiles, kPmCapacity, true);
  EXPECT_EQ(state.cpu, qlearn::Level::kMedium);
}

TEST(StateOfProfiles, AverageAndCurrentDiffer) {
  std::vector<VmProfile> profiles{profile(1.0, 0.1), profile(1.0, 0.1)};
  const auto avg_state = state_of_profiles(profiles, kPmCapacity, true);
  const auto cur_state = state_of_profiles(profiles, kPmCapacity, false);
  EXPECT_EQ(avg_state.cpu, qlearn::Level::kLow);
  EXPECT_EQ(cur_state.cpu, qlearn::Level::kMedium);
}

TEST(LocalTrainer, DuplicationReachesTarget) {
  LocalTrainer trainer(GlapConfig{}, kPmCapacity, Rng(1));
  // Each profile averages 0.5*500 = 250 MIPS; target = 2.5*2660 = 6650
  // -> needs ~27 profiles.
  std::vector<VmProfile> pool{profile(0.5, 0.5), profile(0.5, 0.5)};
  const auto grown = trainer.duplicate_if_required(pool);
  double total = 0.0;
  for (const auto& p : grown) total += p.average_usage.cpu;
  EXPECT_GE(total, LocalTrainer::kDuplicatePoolPmMultiple * kPmCapacity.cpu);
  // Growth stops at the first copy that reaches the target.
  EXPECT_LT(total - grown.back().average_usage.cpu,
            LocalTrainer::kDuplicatePoolPmMultiple * kPmCapacity.cpu);
}

TEST(LocalTrainer, DuplicationCapped) {
  LocalTrainer trainer(GlapConfig{}, kPmCapacity, Rng(1));
  // 5 MIPS per copy: 16 copies fall far short of the target.
  std::vector<VmProfile> pool{profile(0.01, 0.01)};
  const auto grown = trainer.duplicate_if_required(pool);
  EXPECT_EQ(grown.size(), 16u);  // 16x the original single profile
}

TEST(LocalTrainer, EmptyAndTinyPoolsAreSafe) {
  LocalTrainer trainer(GlapConfig{}, kPmCapacity, Rng(1));
  LocalTrainer::Scratch scratch;
  QTablePair tables;
  trainer.train_round({}, tables, scratch);
  trainer.train_round({profile(0.5, 0.5)}, tables, scratch);
  EXPECT_TRUE(tables.out.empty());
  EXPECT_TRUE(tables.in.empty());
}

TEST(LocalTrainer, TrainingPopulatesBothTables) {
  LocalTrainer trainer(GlapConfig{}, kPmCapacity, Rng(2));
  std::vector<VmProfile> pool;
  for (int i = 0; i < 24; ++i)
    pool.push_back(profile(0.2 + 0.03 * i, 0.25 + 0.02 * i));
  QTablePair tables;
  LocalTrainer::Scratch scratch;
  for (int round = 0; round < 20; ++round)
    trainer.train_round(pool, tables, scratch);
  EXPECT_GT(tables.out.size(), 10u);
  EXPECT_GT(tables.in.size(), 10u);
}

TEST(LocalTrainer, DeterministicGivenSeed) {
  std::vector<VmProfile> pool;
  for (int i = 0; i < 16; ++i) pool.push_back(profile(0.3, 0.4));
  QTablePair a, b;
  LocalTrainer ta(GlapConfig{}, kPmCapacity, Rng(7));
  LocalTrainer tb(GlapConfig{}, kPmCapacity, Rng(7));
  LocalTrainer::Scratch scratch;
  for (int round = 0; round < 5; ++round) {
    ta.train_round(pool, a, scratch);
    tb.train_round(pool, b, scratch);
  }
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 1.0);
  EXPECT_EQ(a.out.size(), b.out.size());
}

TEST(LocalTrainer, VolatileWorkloadsLearnNegativeAcceptanceValues) {
  // Profiles whose current demand is far above their average: accepting
  // them into loaded states lands in Overload often, so the IN table must
  // contain strongly negative entries.
  LocalTrainer trainer(GlapConfig{}, kPmCapacity, Rng(3));
  std::vector<VmProfile> pool;
  for (int i = 0; i < 40; ++i) pool.push_back(profile(1.0, 0.35));
  QTablePair tables;
  LocalTrainer::Scratch scratch;
  for (int round = 0; round < 40; ++round)
    trainer.train_round(pool, tables, scratch);
  std::size_t negative = 0;
  for (const auto& [key, q] : tables.in.entries())
    if (q < 0.0) ++negative;
  EXPECT_GT(negative, 0u);
}

TEST(LocalTrainer, AcceptanceRiskGrowsWithStateLoad) {
  // The γ-chain means even light states carry *some* future overload
  // risk (the in-map has no "stop accepting" action), but the learned
  // risk must be ordered: accepting into Low states scores strictly
  // better than accepting into heavily loaded states.
  LocalTrainer trainer(GlapConfig{}, kPmCapacity, Rng(4));
  std::vector<VmProfile> pool;
  for (int i = 0; i < 40; ++i) pool.push_back(profile(0.2, 0.2));
  QTablePair tables;
  LocalTrainer::Scratch scratch;
  for (int round = 0; round < 40; ++round)
    trainer.train_round(pool, tables, scratch);
  RunningStats light, heavy;
  for (const auto& [key, q] : tables.in.entries()) {
    const auto state = qlearn::QTable::state_of(key);
    const auto level = qlearn::level_index(state.cpu);
    if (level <= 1)
      light.add(q);
    else if (level >= 6)
      heavy.add(q);
  }
  ASSERT_GT(light.count(), 0u);
  ASSERT_GT(heavy.count(), 0u);
  EXPECT_GT(light.mean(), heavy.mean());
}

TEST(LocalTrainer, OutValuesRewardDraining) {
  LocalTrainer trainer(GlapConfig{}, kPmCapacity, Rng(5));
  std::vector<VmProfile> pool;
  for (int i = 0; i < 30; ++i) pool.push_back(profile(0.4, 0.4));
  QTablePair tables;
  LocalTrainer::Scratch scratch;
  for (int round = 0; round < 40; ++round)
    trainer.train_round(pool, tables, scratch);
  // All OUT values come from positive rewards, so they are positive.
  for (const auto& [key, q] : tables.out.entries()) EXPECT_GT(q, 0.0);
}

TEST(QTablePair, MergeAndSimilarity) {
  QTablePair a, b;
  a.out.set({qlearn::Level::kLow, qlearn::Level::kLow},
            {qlearn::Level::kLow, qlearn::Level::kLow}, 4.0);
  b.in.set({qlearn::Level::kHigh, qlearn::Level::kHigh},
           {qlearn::Level::kLow, qlearn::Level::kLow}, -2.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 0.0);
  QTablePair merged = a;
  merged.merge_average(b);
  EXPECT_EQ(merged.size(), 2u);
  QTablePair other = b;
  other.merge_average(a);
  EXPECT_DOUBLE_EQ(cosine_similarity(merged, other), 1.0);
}

TEST(QTablePair, EmptyPairsAreIdentical) {
  QTablePair a, b;
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 1.0);
  EXPECT_TRUE(a.empty());
}

}  // namespace
}  // namespace glap::core
