// Unit tests for clb::stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "stats/histogram.hpp"
#include "stats/log_histogram.hpp"
#include "stats/moments.hpp"

namespace clb::stats {
namespace {

TEST(Histogram, BasicCountsAndTotal) {
  IntHistogram h;
  h.add(3, 2);
  h.add(0);
  h.add(10);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count_at(3), 2u);
  EXPECT_EQ(h.count_at(7), 0u);
  EXPECT_EQ(h.max_value(), 10u);
}

TEST(Histogram, MeanAndTail) {
  IntHistogram h;
  h.add(1, 5);
  h.add(3, 5);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.tail_at_least(2), 0.5);
  EXPECT_DOUBLE_EQ(h.tail_at_least(0), 1.0);
  EXPECT_DOUBLE_EQ(h.tail_at_least(4), 0.0);
}

TEST(Histogram, Quantiles) {
  IntHistogram h;
  for (std::uint64_t v = 0; v < 100; ++v) h.add(v);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 49.0, 1.0);
  EXPECT_EQ(h.quantile(1.0), 99u);
  EXPECT_EQ(h.quantile(0.0), 0u);
}

TEST(Histogram, MergeAddsCounts) {
  IntHistogram a, b;
  a.add(1, 3);
  b.add(1, 2);
  b.add(5);
  a.merge(b);
  EXPECT_EQ(a.count_at(1), 5u);
  EXPECT_EQ(a.count_at(5), 1u);
  EXPECT_EQ(a.total(), 6u);
}

TEST(Histogram, EmptyBehaviour) {
  IntHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.tail_at_least(1), 0.0);
}

TEST(Moments, MeanVarianceMinMax) {
  OnlineMoments m;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(x);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  EXPECT_EQ(m.count(), 8u);
}

TEST(Moments, MergeEqualsSequential) {
  OnlineMoments all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i * i % 37);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Moments, CiShrinksWithSamples) {
  OnlineMoments small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 3);
  for (int i = 0; i < 1000; ++i) large.add(i % 3);
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(LogHistogram, ValuesBelow32AreExact) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(LogHistogram::bucket_of(v), v);
    EXPECT_EQ(LogHistogram::bucket_low(v), v);
    EXPECT_EQ(LogHistogram::bucket_of(v + 1), v + 1);
    h.add(v);
  }
  // One sample per value, so the k-th smallest is value k - 1.
  EXPECT_EQ(h.quantile(0.5), 15u);
  EXPECT_EQ(h.quantile(1.0), 31u);
  EXPECT_EQ(h.quantile(0.0), 0u);
}

TEST(LogHistogram, BucketsTileTheRangeWithinOneThirtySecond) {
  // Bucket b holds [bucket_low(b), bucket_low(b + 1) - 1], which is at most
  // 1/32 of its lowest value wide; the last ends at UINT64_MAX.
  for (std::size_t b = 1; b + 1 < LogHistogram::kBuckets; ++b) {
    const std::uint64_t low = LogHistogram::bucket_low(b);
    const std::uint64_t high = LogHistogram::bucket_low(b + 1) - 1;
    ASSERT_LT(LogHistogram::bucket_low(b - 1), low) << "bucket " << b;
    ASSERT_LE(high - low, low / 32) << "bucket " << b;
    ASSERT_EQ(LogHistogram::bucket_of(low), b);
    ASSERT_EQ(LogHistogram::bucket_of(high), b);
  }
  constexpr std::size_t kLast = LogHistogram::kBuckets - 1;
  EXPECT_EQ(LogHistogram::bucket_of(LogHistogram::bucket_low(kLast)), kLast);
  EXPECT_EQ(LogHistogram::bucket_of(LogHistogram::bucket_low(kLast) - 1),
            kLast - 1);
}

TEST(LogHistogram, QuantilesWithinOneBucketOfExact) {
  // Log-uniform samples over 1 us .. 4 s, compared with the exact
  // value-indexed histogram at the quantiles the benchmark reports.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> exponent(0.0, 22.0);
  LogHistogram h;
  IntHistogram exact;
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<std::uint64_t>(std::exp2(exponent(rng)));
    h.add(v);
    exact.add(v);
  }
  for (const double q : {0.5, 0.99, 0.999}) {
    const auto want = static_cast<double>(exact.quantile(q));
    const auto got = static_cast<double>(h.quantile(q));
    EXPECT_LE(std::abs(got - want), want / 32.0) << "q " << q;
  }
}

TEST(LogHistogram, MergeEqualsAddingEverySample) {
  LogHistogram a, b, all;
  for (std::uint64_t v = 0; v < 5000; v += 7) {
    const std::uint64_t x = v * v * 13;
    (v % 3 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_TRUE(std::ranges::equal(a.buckets(), all.buckets()));
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_EQ(a.quantile(0.99), all.quantile(0.99));
}

TEST(LogHistogram, MaxValueLandsInTheLastBucket) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(LogHistogram::bucket_of(kMax), LogHistogram::kBuckets - 1);
  LogHistogram h;
  h.add(kMax);
  EXPECT_EQ(h.buckets()[LogHistogram::kBuckets - 1], 1u);
  EXPECT_EQ(h.max(), kMax);
  EXPECT_EQ(h.quantile(0.5), h.quantile(1.0));
  EXPECT_GE(h.quantile(0.5),
            LogHistogram::bucket_low(LogHistogram::kBuckets - 1));
}

TEST(LogHistogram, CountSumMaxMeanAreExact) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.add(1000001);
  h.add(1000003, 2);
  h.add(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 3000012u);
  EXPECT_EQ(h.max(), 1000003u);
  EXPECT_DOUBLE_EQ(h.mean(), 750003.0);
  // The top bucket's midpoint lies above every sample; the quantile caps it
  // at the exact max.
  EXPECT_EQ(h.quantile(1.0), 1000003u);
}

TEST(LogHistogram, DenseCopyKeepsQuantilesAndCount) {
  LogHistogram h;
  for (std::uint64_t v = 1; v < 100000; v = v * 3 + 1) h.add(v, v % 5 + 1);
  const IntHistogram dense = h.to_dense();
  EXPECT_EQ(dense.total(), h.count());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(dense.quantile(q), h.quantile(q)) << "q " << q;
  }
}

}  // namespace
}  // namespace clb::stats
