#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace glap {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(3);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(2.0, 3.0);
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 100.0), 42.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 17.5);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, RejectsOutOfRangeQ) {
  EXPECT_THROW((void)percentile({1.0}, -1.0), precondition_error);
  EXPECT_THROW((void)percentile({1.0}, 101.0), precondition_error);
}

TEST(Summarize, KnownSummary) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const auto s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.median, 50.5, 1e-12);
  EXPECT_NEAR(s.p10, 10.9, 1e-12);
  EXPECT_NEAR(s.p90, 90.1, 1e-12);
  EXPECT_NEAR(s.p95, 95.05, 1e-12);
  EXPECT_NEAR(s.p99, 99.01, 1e-12);
}

TEST(Summarize, Empty) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0.0);
}

TEST(CosineSimilarity, IdenticalVectors) {
  EXPECT_DOUBLE_EQ(cosine_similarity({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(CosineSimilarity, ScaledVectorsAreIdentical) {
  EXPECT_NEAR(cosine_similarity({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
}

TEST(CosineSimilarity, OrthogonalVectors) {
  EXPECT_DOUBLE_EQ(cosine_similarity({1, 0}, {0, 1}), 0.0);
}

TEST(CosineSimilarity, OppositeVectors) {
  EXPECT_DOUBLE_EQ(cosine_similarity({1, 0}, {-1, 0}), -1.0);
}

TEST(CosineSimilarity, ZeroVectorConventions) {
  EXPECT_DOUBLE_EQ(cosine_similarity({0, 0}, {0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(cosine_similarity({0, 0}, {1, 0}), 0.0);
}

TEST(CosineSimilarity, LengthMismatchThrows) {
  EXPECT_THROW((void)cosine_similarity({1.0}, {1.0, 2.0}), precondition_error);
}

TEST(Histogram, BinsAndCounts) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);
  h.add(0.3);
  h.add(0.3);
  h.add(0.9);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(2), 0u);
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(7.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 1u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, RenderMentionsCounts) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25);
  const std::string out = h.render(10);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), precondition_error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), precondition_error);
}

}  // namespace
}  // namespace glap
