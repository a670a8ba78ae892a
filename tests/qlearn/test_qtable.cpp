#include "qlearn/qtable.hpp"

#include <gtest/gtest.h>

namespace glap::qlearn {
namespace {

const State kStateA{Level::kLow, Level::kLow};
const State kStateB{Level::kHigh, Level::kMedium};
const Action kActA{Level::kMedium, Level::kLow};
const Action kActB{Level::k4xHigh, Level::kXHigh};

// A table is a handle to its shared storage: neither a dense 6561-double
// array (52 KiB) nor the ~1 KiB presence bitmap may come back into the
// object.
static_assert(sizeof(QTable) <= 2 * sizeof(void*));

TEST(QTable, DefaultsToZeroAndEmpty) {
  QTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.value(kStateA, kActA), 0.0);
  EXPECT_FALSE(table.contains(kStateA, kActA));
}

TEST(QTable, SetAndGet) {
  QTable table;
  table.set(kStateA, kActA, 3.5);
  EXPECT_TRUE(table.contains(kStateA, kActA));
  EXPECT_DOUBLE_EQ(table.value(kStateA, kActA), 3.5);
  EXPECT_EQ(table.size(), 1u);
}

TEST(QTable, UpdateMatchesBellmanArithmetic) {
  QTable table;
  const QLearningParams params{.alpha = 0.5, .gamma = 0.8};
  // Seed the next state's best action value.
  table.set(kStateB, kActB, 10.0);
  table.set(kStateA, kActA, 2.0);
  // Q <- (1-a)*2 + a*(R + g*max_a' Q(B, a')) = 0.5*2 + 0.5*(4 + 0.8*10)
  table.update(kStateA, kActA, 4.0, kStateB, params);
  EXPECT_DOUBLE_EQ(table.value(kStateA, kActA), 1.0 + 0.5 * 12.0);
}

TEST(QTable, UpdateFromUnknownPairStartsAtZero) {
  QTable table;
  const QLearningParams params{.alpha = 0.5, .gamma = 0.8};
  table.update(kStateA, kActA, 6.0, kStateB, params);
  // (1-0.5)*0 + 0.5*(6 + 0.8*0) = 3
  EXPECT_DOUBLE_EQ(table.value(kStateA, kActA), 3.0);
}

TEST(QTable, UpdateAlphaOneIsDeterministic) {
  QTable table;
  const QLearningParams params{.alpha = 1.0, .gamma = 0.0};
  table.set(kStateA, kActA, 100.0);
  table.update(kStateA, kActA, 7.0, kStateB, params);
  EXPECT_DOUBLE_EQ(table.value(kStateA, kActA), 7.0);
}

TEST(QTable, MaxValueOverKnownActions) {
  QTable table;
  EXPECT_DOUBLE_EQ(table.max_value(kStateA), 0.0);
  table.set(kStateA, kActA, -5.0);
  EXPECT_DOUBLE_EQ(table.max_value(kStateA), -5.0);
  table.set(kStateA, kActB, 2.0);
  EXPECT_DOUBLE_EQ(table.max_value(kStateA), 2.0);
  // Other states do not leak in.
  table.set(kStateB, kActA, 99.0);
  EXPECT_DOUBLE_EQ(table.max_value(kStateA), 2.0);
}

TEST(QTable, BestActionRestrictedToAvailable) {
  QTable table;
  table.set(kStateA, kActA, 1.0);
  table.set(kStateA, kActB, 10.0);
  const auto best = table.best_action(kStateA, {kActA});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, kActA);  // kActB is not available
  const auto best2 = table.best_action(kStateA, {kActA, kActB});
  ASSERT_TRUE(best2.has_value());
  EXPECT_EQ(*best2, kActB);
}

TEST(QTable, BestActionEmptyAvailableIsNullopt) {
  QTable table;
  EXPECT_EQ(table.best_action(kStateA, {}), std::nullopt);
}

TEST(QTable, BestActionUnknownPairsCountAsZero) {
  QTable table;
  table.set(kStateA, kActA, -3.0);
  // Unknown kActB has implicit value 0 > -3.
  const auto best = table.best_action(kStateA, {kActA, kActB});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, kActB);
}

TEST(QTable, BestActionTieBreaksFirst) {
  QTable table;
  table.set(kStateA, kActA, 5.0);
  table.set(kStateA, kActB, 5.0);
  const auto best = table.best_action(kStateA, {kActA, kActB});
  EXPECT_EQ(*best, kActA);
}

TEST(QTable, MergeAveragesCommonKeys) {
  QTable a, b;
  a.set(kStateA, kActA, 2.0);
  b.set(kStateA, kActA, 6.0);
  a.merge_average(b);
  EXPECT_DOUBLE_EQ(a.value(kStateA, kActA), 4.0);
}

TEST(QTable, MergeAdoptsDisjointKeys) {
  QTable a, b;
  a.set(kStateA, kActA, 2.0);
  b.set(kStateB, kActB, 8.0);
  a.merge_average(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.value(kStateA, kActA), 2.0);
  EXPECT_DOUBLE_EQ(a.value(kStateB, kActB), 8.0);
}

TEST(QTable, SymmetricMergeConverges) {
  QTable a, b;
  a.set(kStateA, kActA, 0.0);
  b.set(kStateA, kActA, 8.0);
  QTable merged = a;
  merged.merge_average(b);
  // Both parties adopting the merged table end up identical; their common
  // key holds the average.
  EXPECT_DOUBLE_EQ(merged.value(kStateA, kActA), 4.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(merged, merged), 1.0);
}

TEST(QTable, CosineSimilarityCases) {
  QTable a, b;
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 1.0);  // both empty
  a.set(kStateA, kActA, 1.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), 0.0);  // one empty
  b.set(kStateA, kActA, 2.0);
  EXPECT_NEAR(cosine_similarity(a, b), 1.0, 1e-12);  // parallel
  QTable c;
  c.set(kStateB, kActB, 1.0);
  EXPECT_DOUBLE_EQ(cosine_similarity(a, c), 0.0);  // orthogonal keys
}

TEST(QTable, DenseSnapshot) {
  QTable table;
  table.set(kStateA, kActA, 2.5);
  const auto dense = table.dense();
  EXPECT_EQ(dense.size(), kLevelPairCount * kLevelPairCount);
  EXPECT_DOUBLE_EQ(dense[QTable::key_of(kStateA, kActA)], 2.5);
  double sum = 0.0;
  for (double v : dense) sum += v;
  EXPECT_DOUBLE_EQ(sum, 2.5);
}

TEST(QTable, KeyRoundTrip) {
  const auto key = QTable::key_of(kStateB, kActB);
  EXPECT_EQ(QTable::state_of(key), kStateB);
  EXPECT_EQ(QTable::action_of(key), kActB);
}

TEST(QTable, ClearEmpties) {
  QTable table;
  table.set(kStateA, kActA, 1.0);
  table.clear();
  EXPECT_TRUE(table.empty());
}

TEST(QTable, CopiesShareStorageUntilOneWrites) {
  QTable a;
  a.set(kStateA, kActA, 1.0);
  QTable b = a;
  EXPECT_TRUE(b.shares_storage_with(a));
  // A write clones the shared storage first: the copy keeps its value.
  a.set(kStateA, kActA, 2.0);
  EXPECT_FALSE(b.shares_storage_with(a));
  EXPECT_EQ(b.value(kStateA, kActA), 1.0);
  b.update(kStateB, kActB, 4.0, kStateA, QLearningParams{});
  EXPECT_FALSE(a.contains(kStateB, kActB));
  // Tables without storage share nothing.
  EXPECT_FALSE(QTable{}.shares_storage_with(QTable{}));
}

TEST(QTable, MergeIntoEmptyAdoptsAndMergeOfEmptyKeeps) {
  QTable a, empty;
  a.set(kStateA, kActA, 3.0);
  QTable adopter;
  adopter.merge_average(a);
  EXPECT_TRUE(adopter.shares_storage_with(a));
  const QTable before = a;
  a.merge_average(empty);
  EXPECT_TRUE(a.shares_storage_with(before));
  // A merge of two non-empty tables writes fresh storage.
  a.merge_average(adopter);
  EXPECT_FALSE(a.shares_storage_with(adopter));
  EXPECT_EQ(a.value(kStateA, kActA), 3.0);
}

}  // namespace
}  // namespace glap::qlearn
