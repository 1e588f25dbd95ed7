#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace rc {
namespace {

TEST(OnlineStatsTest, EmptyDefaults) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.cov(), 0.0);
}

TEST(OnlineStatsTest, SingleValue) {
  OnlineStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStatsTest, MatchesBatchComputation) {
  std::vector<double> xs = {1.0, 2.5, -3.0, 7.0, 0.25, 9.5};
  OnlineStats s;
  for (double x : xs) s.Add(x);
  EXPECT_NEAR(s.mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(s.variance(), Variance(xs), 1e-12);
  EXPECT_NEAR(s.stddev(), StdDev(xs), 1e-12);
}

TEST(OnlineStatsTest, MergeEqualsCombined) {
  Rng rng(3);
  OnlineStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    double x = rng.Normal(1.0, 2.0);
    a.Add(x);
    all.Add(x);
  }
  for (int i = 0; i < 300; ++i) {
    double x = rng.Normal(-4.0, 0.5);
    b.Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a, empty;
  a.Add(1.0);
  a.Add(3.0);
  double mean = a.mean();
  a.Merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.Merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(OnlineStatsTest, CovIsScaleFree) {
  OnlineStats a, b;
  for (double x : {1.0, 2.0, 3.0}) a.Add(x);
  for (double x : {10.0, 20.0, 30.0}) b.Add(x);
  EXPECT_NEAR(a.cov(), b.cov(), 1e-12);
}

TEST(StatsTest, CoefficientOfVariationZeroMean) {
  EXPECT_EQ(CoefficientOfVariation({-1.0, 1.0}), 0.0);
  EXPECT_EQ(CoefficientOfVariation({}), 0.0);
}

TEST(PercentileTest, Endpoints) {
  std::vector<double> xs = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 3.0);
}

TEST(PercentileTest, LinearInterpolation) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25.0), 2.5);
}

TEST(PercentileTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(PercentileTest, ThrowsOnEmpty) {
  EXPECT_THROW(Percentile({}, 50.0), std::invalid_argument);
}

TEST(PercentileTest, SortedVariantAgrees) {
  Rng rng(9);
  std::vector<double> xs(1001);
  for (auto& x : xs) x = rng.NextDouble();
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {1.0, 5.0, 50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(Percentile(xs, p), PercentileSorted(sorted, p));
  }
}

TEST(PercentileTest, SelectVariantIsBitExact) {
  // Sizes 1 and 2, sizes where the P95 rank is exact (n - 1 a multiple of
  // 20) and interpolated, duplicates, and the endpoints.
  Rng rng(17);
  for (size_t n : {1, 2, 3, 20, 21, 41, 64, 512, 513}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> xs(n);
      for (auto& x : xs) x = trial % 4 == 0 ? std::floor(rng.Uniform(0.0, 4.0)) : rng.NextDouble();
      for (double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
        std::vector<double> copy = xs;
        const double want = Percentile(xs, p);
        const double got = PercentileSelect(copy, p);
        ASSERT_EQ(std::memcmp(&want, &got, sizeof want), 0)
            << "n=" << n << " p=" << p << ": " << got << " vs " << want;
      }
    }
  }
  std::vector<double> empty;
  EXPECT_THROW(PercentileSelect(empty, 50.0), std::invalid_argument);
}

class PercentileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotone, NonDecreasingInP) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<double> xs(200);
  for (auto& x : xs) x = rng.Normal(0.0, 5.0);
  std::sort(xs.begin(), xs.end());
  double prev = PercentileSorted(xs, 0.0);
  for (double p = 1.0; p <= 100.0; p += 1.0) {
    double cur = PercentileSorted(xs, p);
    ASSERT_GE(cur, prev) << "p=" << p;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace rc
