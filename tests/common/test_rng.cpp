#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace glap {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(99);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng base(7);
  Rng a = base.split(1);
  Rng b = base.split(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
  // Splitting is deterministic.
  Rng a2 = Rng(7).split(1);
  EXPECT_EQ(a2(), Rng(7).split(1)());
}

TEST(Rng, SplitByTagMatchesTagHash) {
  Rng base(7);
  Rng by_tag = base.split("workload");
  Rng by_id = base.split(hash_tag("workload"));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(by_tag(), by_id());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 2.5);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 2.5);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BoundedStaysInBound) {
  Rng rng(13);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Rng, BoundedCoversAllValues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(19);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.bounded(8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, n / 80);
}

TEST(Rng, RangeInclusive) {
  Rng rng(23);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.range(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(37);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalShifted) {
  Rng rng(41);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, GammaMean) {
  Rng rng(47);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.gamma(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, GammaSmallShapeMean) {
  Rng rng(53);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.gamma(0.5);
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST(Rng, BetaMeanAndBounds) {
  Rng rng(59);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.beta(2.0, 4.0);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 2.0 / 6.0, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(61);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(67);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
}

TEST(Rng, PickIndexInRange) {
  Rng rng(71);
  std::vector<int> v(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.pick_index(v), v.size());
}

TEST(HashCombine, DeterministicAndSensitive) {
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(1, 2), hash_combine(1, 3));
}

TEST(HashTag, DistinctTagsDistinctHashes) {
  EXPECT_EQ(hash_tag("abc"), hash_tag("abc"));
  EXPECT_NE(hash_tag("abc"), hash_tag("abd"));
  EXPECT_NE(hash_tag(""), hash_tag("a"));
}

}  // namespace
}  // namespace glap
