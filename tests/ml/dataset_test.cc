#include "src/ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/parallel.h"
#include "src/common/rng.h"

namespace rc::ml {
namespace {

TEST(DatasetTest, AddAndAccess) {
  Dataset d({"a", "b"});
  double r1[] = {1.0, 2.0};
  double r2[] = {3.0, 4.0};
  d.AddRow(r1, 0);
  d.AddRow(r2, 1);
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_DOUBLE_EQ(d.Value(1, 0), 3.0);
  EXPECT_EQ(d.Label(1), 1);
  EXPECT_EQ(d.Row(0)[1], 2.0);
  EXPECT_EQ(d.NumClasses(), 2);
}

TEST(DatasetTest, RejectsWrongArity) {
  Dataset d({"a", "b"});
  double r[] = {1.0};
  EXPECT_THROW(d.AddRow(r, 0), std::invalid_argument);
}

TEST(DatasetTest, RejectsNaN) {
  Dataset d({"a"});
  double r[] = {std::nan("")};
  EXPECT_THROW(d.AddRow(r, 0), std::invalid_argument);
}

TEST(DatasetTest, NumClassesFromMaxLabel) {
  Dataset d({"a"});
  double r[] = {0.0};
  d.AddRow(r, 3);
  EXPECT_EQ(d.NumClasses(), 4);
}

TEST(FeatureBinnerTest, LowCardinalityGetsExactBins) {
  Dataset d({"cat"});
  for (int i = 0; i < 100; ++i) {
    double v = static_cast<double>(i % 3);  // values 0, 1, 2
    d.AddRow({&v, 1}, 0);
  }
  FeatureBinner binner = FeatureBinner::Fit(d, 64);
  EXPECT_EQ(binner.NumBins(0), 3);
  EXPECT_EQ(binner.Bin(0, 0.0), 0);
  EXPECT_EQ(binner.Bin(0, 1.0), 1);
  EXPECT_EQ(binner.Bin(0, 2.0), 2);
  EXPECT_EQ(binner.Bin(0, 99.0), 2);
  EXPECT_EQ(binner.Bin(0, -5.0), 0);
}

TEST(FeatureBinnerTest, SplitThresholdConsistentWithBinning) {
  Rng rng(3);
  Dataset d({"x"});
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Normal(0.0, 1.0);
    d.AddRow({&v, 1}, 0);
  }
  FeatureBinner binner = FeatureBinner::Fit(d, 16);
  for (int b = 0; b + 1 < binner.NumBins(0); ++b) {
    double threshold = binner.SplitThreshold(0, b);
    // Invariant: bin(v) <= b  <=>  v < threshold.
    EXPECT_GT(binner.Bin(0, threshold), b);
    EXPECT_LE(binner.Bin(0, std::nextafter(threshold, -1e9)), b);
  }
}

TEST(FeatureBinnerTest, BinsRoughlyEqualFrequency) {
  Rng rng(5);
  Dataset d({"x"});
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    values.push_back(v);
    d.AddRow({&v, 1}, 0);
  }
  FeatureBinner binner = FeatureBinner::Fit(d, 10);
  std::vector<int> counts(static_cast<size_t>(binner.NumBins(0)), 0);
  for (double v : values) counts[static_cast<size_t>(binner.Bin(0, v))]++;
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(FeatureBinnerTest, ConstantFeatureSingleBin) {
  Dataset d({"const"});
  for (int i = 0; i < 50; ++i) {
    double v = 7.0;
    d.AddRow({&v, 1}, 0);
  }
  FeatureBinner binner = FeatureBinner::Fit(d, 8);
  EXPECT_EQ(binner.NumBins(0), 1);
}

TEST(FeatureBinnerTest, TransformColumnMajor) {
  Dataset d({"x", "y"});
  double r1[] = {0.0, 10.0};
  double r2[] = {1.0, 20.0};
  double r3[] = {2.0, 30.0};
  d.AddRow(r1, 0);
  d.AddRow(r2, 0);
  d.AddRow(r3, 0);
  FeatureBinner binner = FeatureBinner::Fit(d, 8);
  std::vector<uint8_t> bins = binner.Transform(d);
  ASSERT_EQ(bins.size(), 6u);
  // Column 0 occupies the first num_rows entries.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bins[i], static_cast<uint8_t>(binner.Bin(0, d.Value(i, 0))));
    EXPECT_EQ(bins[3 + i], static_cast<uint8_t>(binner.Bin(1, d.Value(i, 1))));
  }
}

TEST(FeatureBinnerTest, RejectsBadMaxBins) {
  Dataset d({"x"});
  double v = 0.0;
  d.AddRow({&v, 1}, 0);
  EXPECT_THROW(FeatureBinner::Fit(d, 1), std::invalid_argument);
  EXPECT_THROW(FeatureBinner::Fit(d, 300), std::invalid_argument);
}

// Sequential reference for FeatureBinner: one column at a time, a full
// sort, the same equal-frequency rule, bins by upper_bound. Where -0.0 and
// +0.0 share a column the sort may leave either at a rank, so a zero
// boundary is pinned to +0.0 bytes, as FeatureBinner keeps it.
struct OracleBinner {
  std::vector<std::vector<double>> boundaries;

  OracleBinner(const Dataset& data, int max_bins) : boundaries(data.num_features()) {
    for (size_t f = 0; f < data.num_features(); ++f) {
      std::vector<double> col(data.num_rows());
      for (size_t i = 0; i < data.num_rows(); ++i) col[i] = data.Value(i, f);
      std::sort(col.begin(), col.end());
      for (int b = 1; b < max_bins && !col.empty(); ++b) {
        size_t idx = col.size() * static_cast<size_t>(b) / static_cast<size_t>(max_bins);
        if (idx >= col.size()) break;
        double v = col[idx];
        if (v == 0.0) v = 0.0;
        auto& bounds = boundaries[f];
        if (v > col.front() && (bounds.empty() || v > bounds.back())) bounds.push_back(v);
      }
    }
  }

  std::vector<uint8_t> Transform(const Dataset& data) const {
    std::vector<uint8_t> out;
    for (size_t f = 0; f < data.num_features(); ++f) {
      for (size_t i = 0; i < data.num_rows(); ++i) {
        const auto& bounds = boundaries[f];
        out.push_back(static_cast<uint8_t>(
            std::upper_bound(bounds.begin(), bounds.end(), data.Value(i, f)) - bounds.begin()));
      }
    }
    return out;
  }
};

// Columns cycle through continuous, constant, two-valued and small-integer
// shapes.
Dataset MixedColumns(size_t rows, size_t features, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t f = 0; f < features; ++f) names.push_back("f" + std::to_string(f));
  Dataset d(names);
  Rng rng(seed);
  std::vector<double> row(features);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t f = 0; f < features; ++f) {
      switch (f % 4) {
        case 0:
          row[f] = rng.Normal(0.0, 1.0 + static_cast<double>(f));
          break;
        case 1:
          row[f] = 3.5;
          break;
        case 2:
          row[f] = rng.NextDouble() < 0.3 ? -1.0 : 2.0;
          break;
        default:
          row[f] = static_cast<double>(rng.UniformInt(0, 6));
          break;
      }
    }
    d.AddRow(row, static_cast<int>(i % 2));
  }
  return d;
}

// Columns that stress rank selection, cycling through: continuous; one
// value held by 40% of the rows, so it sits on many quantile ranks; -0.0
// and +0.0 mixed among negative values (zeros at ranks, the minimum below
// them); zeros of both signs only; ascending integers, all distinct.
Dataset EdgeColumns(size_t rows, size_t features, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t f = 0; f < features; ++f) names.push_back("e" + std::to_string(f));
  Dataset d(names);
  Rng rng(seed);
  std::vector<double> row(features);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t f = 0; f < features; ++f) {
      const double u = rng.NextDouble();
      switch (f % 5) {
        case 0:
          row[f] = rng.Normal(0.0, 1.0);
          break;
        case 1:
          row[f] = u < 0.4 ? 2.5 : rng.Normal(2.5, 1.0);
          break;
        case 2:
          row[f] = u < 0.4 ? -rng.NextDouble() : (u < 0.6 ? -0.0 : (u < 0.8 ? 0.0 : u));
          break;
        case 3:
          row[f] = u < 0.5 ? -0.0 : 0.0;
          break;
        default:
          row[f] = static_cast<double>(i);
          break;
      }
    }
    d.AddRow(row, 0);
  }
  return d;
}

void ExpectMatchesOracle(const Dataset& d, int max_bins) {
  FeatureBinner binner = FeatureBinner::Fit(d, max_bins);
  OracleBinner oracle(d, max_bins);
  ASSERT_EQ(binner.num_features(), d.num_features());
  for (size_t f = 0; f < d.num_features(); ++f) {
    const auto& bounds = oracle.boundaries[f];
    ASSERT_EQ(binner.NumBins(f), static_cast<int>(bounds.size()) + 1) << "feature " << f;
    for (size_t b = 0; b < bounds.size(); ++b) {
      const double got = binner.SplitThreshold(f, static_cast<int>(b));
      EXPECT_EQ(std::memcmp(&got, &bounds[b], sizeof(double)), 0) << f << "/" << b;
    }
  }
  EXPECT_EQ(binner.Transform(d), oracle.Transform(d));
}

// Training partitions rows by bin (bin <= b goes left) and inference routes
// raw values by threshold (x < SplitThreshold goes left). The two rules must
// send every value the same way: on each boundary, just beside it, at the
// infinities and at NaN, which falls into the top bin and so goes right
// under both.
TEST(FeatureBinnerTest, BinRoutingMatchesThresholdRouting) {
  const Dataset d = MixedColumns(3000, 9, 23);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int max_bins : {2, 16, 64}) {
    FeatureBinner binner = FeatureBinner::Fit(d, max_bins);
    for (size_t f = 0; f < d.num_features(); ++f) {
      const int bins = binner.NumBins(f);
      std::vector<double> probes = {inf, -inf, nan, 0.0, -0.0};
      for (int b = 0; b + 1 < bins; ++b) {
        const double t = binner.SplitThreshold(f, b);
        probes.insert(probes.end(), {t, std::nextafter(t, -inf), std::nextafter(t, inf)});
      }
      for (size_t i = 0; i < d.num_rows(); i += 97) probes.push_back(d.Value(i, f));
      EXPECT_EQ(binner.Bin(f, nan), bins - 1) << "feature " << f;
      for (double v : probes) {
        for (int b = 0; b + 1 < bins; ++b) {
          EXPECT_EQ(binner.Bin(f, v) <= b, v < binner.SplitThreshold(f, b))
              << "max_bins " << max_bins << " feature " << f << " bin " << b << " value " << v;
        }
      }
    }
  }
}

TEST(FeatureBinnerTest, ParallelFitAndTransformMatchSequentialOracle) {
  // More features than threads, so every thread gets several columns, and
  // enough rows that the threads' sorts overlap in time.
  const size_t features = 3 * HardwareThreads() + 5;
  for (int max_bins : {2, 16, 64, 256}) {
    SCOPED_TRACE(max_bins);
    ExpectMatchesOracle(MixedColumns(20000, features, 11), max_bins);
  }
}

TEST(FeatureBinnerTest, FewerRowsThanFeaturesMatchSequentialOracle) {
  const size_t features = 2 * HardwareThreads() + 3;
  for (size_t rows : {1u, 2u, 5u}) {
    SCOPED_TRACE(rows);
    ExpectMatchesOracle(MixedColumns(rows, features, 23 + rows), 64);
  }
}

TEST(FeatureBinnerTest, EdgeRowCountsAndColumnsMatchSequentialOracle) {
  // Around one bin's worth of rows (63, 64, 65), where ranks repeat or
  // just stop repeating, one row, and a large column.
  const size_t features = 2 * HardwareThreads() + 3;
  for (size_t rows : {1u, 63u, 64u, 65u, 100'000u}) {
    for (int max_bins : {2, 64, 256}) {
      SCOPED_TRACE(std::to_string(rows) + " rows, max_bins " + std::to_string(max_bins));
      ExpectMatchesOracle(EdgeColumns(rows, features, 41 + rows), max_bins);
    }
  }
}

// Selection and a sort can leave different zeros at a rank; the binner keeps
// every zero boundary as +0.0, so its bytes (and a tree's threshold bytes)
// never depend on which zero the selection left there.
TEST(FeatureBinnerTest, ZeroBoundaryIsPositiveZero) {
  const Dataset d = EdgeColumns(20000, 5, 43);
  for (size_t f : {2u, 3u}) {
    for (int max_bins : {2, 64, 256}) {
      FeatureBinner binner = FeatureBinner::Fit(d, max_bins);
      int zeros = 0;
      for (int b = 0; b + 1 < binner.NumBins(f); ++b) {
        const double t = binner.SplitThreshold(f, b);
        if (t == 0.0) {
          EXPECT_FALSE(std::signbit(t)) << "feature " << f << " max_bins " << max_bins;
          ++zeros;
        }
      }
      // The mixed column has a zero boundary above its negative minimum; the
      // all-zero column has a single bin and no boundary.
      EXPECT_EQ(zeros, f == 2 ? 1 : 0) << "feature " << f << " max_bins " << max_bins;
    }
  }
}

}  // namespace
}  // namespace rc::ml
