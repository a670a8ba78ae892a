#include "core/rewards.hpp"

#include <gtest/gtest.h>

namespace glap::core {
namespace {

using qlearn::Level;
using qlearn::LevelPair;

TEST(RewardOut, StrictlyDecreasingAndPositive) {
  double prev = 1e18;
  for (std::size_t i = 0; i < qlearn::kLevelCount; ++i) {
    const double r = out_level_reward(static_cast<Level>(i));
    EXPECT_GT(r, 0.0) << "r must stay positive at level " << i;
    EXPECT_LT(r, prev) << "r must strictly decrease";
    prev = r;
  }
}

TEST(RewardIn, IncreasingUpTo5xHighThenVeryNegative) {
  double prev = -1e18;
  for (std::size_t i = 0; i + 1 < qlearn::kLevelCount; ++i) {
    const double r = in_level_reward(static_cast<Level>(i));
    EXPECT_GT(r, 0.0);
    EXPECT_GT(r, prev);
    prev = r;
  }
  const double overload = in_level_reward(Level::kOverload);
  EXPECT_LT(overload, 0.0);
  // r_O << 0: far below any positive reward.
  EXPECT_LT(overload, -10.0 * prev);
}

TEST(RewardTransition, SumsPerResourceRewards) {
  const LevelPair next{Level::kLow, Level::kMedium};
  EXPECT_DOUBLE_EQ(out_reward(next),
                   out_level_reward(Level::kLow) +
                       out_level_reward(Level::kMedium));
  EXPECT_DOUBLE_EQ(in_reward(next),
                   in_level_reward(Level::kLow) +
                       in_level_reward(Level::kMedium));
}

TEST(RewardIn, SingleOverloadedResourceDominates) {
  const LevelPair next{Level::kOverload, Level::kLow};
  EXPECT_LT(in_reward(next), 0.0);
}

TEST(RewardOut, EmptierDestinationPaysMore) {
  const LevelPair lighter{Level::kLow, Level::kLow};
  const LevelPair heavier{Level::k4xHigh, Level::k4xHigh};
  EXPECT_GT(out_reward(lighter), out_reward(heavier));
}

}  // namespace
}  // namespace glap::core
