#include "src/ml/tree.h"

#include <cmath>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace rc::ml {
namespace {

struct Binned {
  Dataset data;
  FeatureBinner binner;
  std::vector<uint8_t> bins;

  explicit Binned(Dataset d) : data(std::move(d)), binner(FeatureBinner::Fit(data, 64)) {
    bins = binner.Transform(data);
  }
  BinnedView view() const {
    return BinnedView{bins.data(), data.num_rows(), data.num_features(), &binner};
  }
};

std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

// The split search's histogram kernel, pinned bit for bit to the plain
// one-feature-at-a-time loop it replaced: every bin must sum its rows in row
// order. Bins repeat heavily (long same-bin runs are where a kernel could
// reorder adds), the feature count is odd (one feature builds alone), and
// some features have only two bins.
TEST(GradHistogramKernelTest, MatchesOneFeatureAtATimeBitForBit) {
  constexpr size_t kRows = 5000;
  constexpr size_t kFeatures = 7;
  Rng rng(11);
  std::vector<uint8_t> bins(kRows * kFeatures);
  std::vector<int> num_bins(kFeatures);
  for (size_t f = 0; f < kFeatures; ++f) {
    num_bins[f] = f % 3 == 1 ? 2 : static_cast<int>(rng.UniformInt(3, 64));
    uint8_t run_bin = 0;
    for (size_t i = 0; i < kRows; ++i) {
      // Runs of one bin, broken at random.
      if (rng.NextDouble() < 0.2) run_bin = static_cast<uint8_t>(rng.UniformInt(0, num_bins[f] - 1));
      bins[f * kRows + i] = run_bin;
    }
  }
  std::vector<double> grad(kRows), hess(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    grad[i] = rng.Normal(0.0, 1.0) * std::pow(10.0, rng.UniformInt(-6, 6));
    hess[i] = rng.NextDouble() * std::pow(10.0, rng.UniformInt(-9, 3));
  }
  // A node's rows: a shuffled subset, as after a few partitions.
  std::vector<uint32_t> rows = AllRows(kRows);
  rng.Shuffle(rows);
  rows.resize(kRows * 3 / 4);
  std::vector<GradPair> gh(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) gh[i] = GradPair{grad[rows[i]], hess[rows[i]]};

  std::vector<GradPair> sums(kFeatures * 256);
  std::vector<uint32_t> counts(kFeatures * 256, 0);
  std::vector<GradHistogram> hists;
  for (size_t f = 0; f < kFeatures; ++f) {
    hists.push_back({bins.data() + f * kRows, sums.data() + f * 256, counts.data() + f * 256});
  }
  BuildGradHistograms(rows, gh.data(), hists);

  for (size_t f = 0; f < kFeatures; ++f) {
    std::vector<double> g(256, 0.0), h(256, 0.0);
    std::vector<uint32_t> c(256, 0);
    for (uint32_t row : rows) {
      const uint8_t b = bins[f * kRows + row];
      g[b] += grad[row];
      h[b] += hess[row];
      c[b] += 1;
    }
    for (int b = 0; b < num_bins[f]; ++b) {
      const GradPair& got = sums[f * 256 + static_cast<size_t>(b)];
      EXPECT_EQ(std::memcmp(&got.g, &g[b], sizeof(double)), 0) << "feature " << f << " bin " << b;
      EXPECT_EQ(std::memcmp(&got.h, &h[b], sizeof(double)), 0) << "feature " << f << " bin " << b;
      EXPECT_EQ(counts[f * 256 + static_cast<size_t>(b)], c[b]) << "feature " << f << " bin " << b;
    }
  }
}

TEST(DecisionTreeTest, LearnsAxisAlignedSplit) {
  Dataset d({"x"});
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    double v = rng.NextDouble();
    d.AddRow({&v, 1}, v < 0.4 ? 0 : 1);
  }
  Binned b(std::move(d));
  Rng train_rng(2);
  DecisionTree tree = DecisionTree::FitClassifier(b.view(), b.data.labels(),
                                                  AllRows(b.data.num_rows()), 2,
                                                  TreeConfig{}, train_rng);
  std::vector<double> probs(2);
  double lo = 0.1, hi = 0.9;
  tree.PredictProba({&lo, 1}, probs);
  EXPECT_GT(probs[0], 0.95);
  tree.PredictProba({&hi, 1}, probs);
  EXPECT_GT(probs[1], 0.95);
}

TEST(DecisionTreeTest, PureNodeBecomesLeaf) {
  Dataset d({"x"});
  for (int i = 0; i < 20; ++i) {
    double v = static_cast<double>(i);
    d.AddRow({&v, 1}, 1);
  }
  Binned b(std::move(d));
  Rng rng(3);
  DecisionTree tree = DecisionTree::FitClassifier(b.view(), b.data.labels(), AllRows(20), 2,
                                                  TreeConfig{}, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.depth(), 1);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  Rng rng(5);
  Dataset d({"x", "y"});
  for (int i = 0; i < 2000; ++i) {
    double row[2] = {rng.NextDouble(), rng.NextDouble()};
    int label = (static_cast<int>(row[0] * 8) + static_cast<int>(row[1] * 8)) % 2;
    d.AddRow(row, label);
  }
  Binned b(std::move(d));
  TreeConfig config;
  config.max_depth = 3;
  Rng train_rng(6);
  DecisionTree tree = DecisionTree::FitClassifier(b.view(), b.data.labels(), AllRows(2000),
                                                  2, config, train_rng);
  EXPECT_LE(tree.depth(), 4);  // root at depth 1, so max_depth splits => depth 4
}

TEST(DecisionTreeTest, MinSamplesLeafHonored) {
  Rng rng(7);
  Dataset d({"x"});
  for (int i = 0; i < 64; ++i) {
    double v = rng.NextDouble();
    d.AddRow({&v, 1}, rng.Bernoulli(0.5) ? 1 : 0);
  }
  Binned b(std::move(d));
  TreeConfig config;
  config.min_samples_leaf = 40;  // only 64 samples => at most a root split is barred
  Rng train_rng(8);
  DecisionTree tree = DecisionTree::FitClassifier(b.view(), b.data.labels(), AllRows(64), 2,
                                                  config, train_rng);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(DecisionTreeTest, BaggedRowsRespected) {
  // Duplicate row indices (bootstrap) should weight the distribution.
  Dataset d({"x"});
  double v0 = 0.0, v1 = 1.0;
  d.AddRow({&v0, 1}, 0);
  d.AddRow({&v1, 1}, 1);
  Binned b(std::move(d));
  std::vector<uint32_t> rows = {0, 1, 1, 1};  // class 1 x3
  Rng rng(9);
  TreeConfig config;
  config.min_samples_leaf = 4;  // force a single leaf
  DecisionTree tree =
      DecisionTree::FitClassifier(b.view(), b.data.labels(), rows, 2, config, rng);
  std::vector<double> probs(2);
  tree.PredictProba({&v0, 1}, probs);
  EXPECT_NEAR(probs[1], 0.75, 1e-6);
}

TEST(DecisionTreeTest, GainImportanceOnInformativeFeature) {
  Rng rng(11);
  Dataset d({"noise", "signal"});
  for (int i = 0; i < 2000; ++i) {
    double row[2] = {rng.NextDouble(), rng.NextDouble()};
    d.AddRow(row, row[1] > 0.5 ? 1 : 0);
  }
  Binned b(std::move(d));
  Rng train_rng(12);
  DecisionTree tree = DecisionTree::FitClassifier(b.view(), b.data.labels(), AllRows(2000),
                                                  2, TreeConfig{}, train_rng);
  const auto& gains = tree.gain_importance();
  ASSERT_EQ(gains.size(), 2u);
  EXPECT_GT(gains[1], gains[0] * 10);
}

TEST(DecisionTreeTest, SerializationRoundTrip) {
  Rng rng(13);
  Dataset d({"x", "y"});
  for (int i = 0; i < 1000; ++i) {
    double row[2] = {rng.NextDouble(), rng.NextDouble()};
    d.AddRow(row, row[0] + row[1] > 1.0 ? 1 : 0);
  }
  Binned b(std::move(d));
  Rng train_rng(14);
  DecisionTree tree = DecisionTree::FitClassifier(b.view(), b.data.labels(), AllRows(1000),
                                                  2, TreeConfig{}, train_rng);
  ByteWriter w;
  tree.Serialize(w);
  std::vector<uint8_t> bytes = w.TakeBytes();
  ByteReader r(bytes);
  DecisionTree restored = DecisionTree::Deserialize(r);
  EXPECT_TRUE(r.AtEnd());

  std::vector<double> pa(2), pb(2);
  for (int i = 0; i < 100; ++i) {
    double row[2] = {rng.NextDouble(), rng.NextDouble()};
    tree.PredictProba(row, pa);
    restored.PredictProba(row, pb);
    ASSERT_EQ(pa[0], pb[0]);
    ASSERT_EQ(pa[1], pb[1]);
  }
}

TEST(DecisionTreeTest, RegressionFitsStepFunction) {
  // Newton step with constant hessian 1: leaf value = mean(-grad).
  // Fit to residuals of y: grad = -(y), hess = 1 => leaf predicts mean(y).
  Rng rng(15);
  Dataset d({"x"});
  std::vector<double> grad, hess;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    d.AddRow({&v, 1}, 0);
    double y = v < 0.5 ? 2.0 : -1.0;
    grad.push_back(-y);
    hess.push_back(1.0);
  }
  Binned b(std::move(d));
  TreeConfig config;
  config.lambda = 0.0;
  Rng train_rng(16);
  DecisionTree tree =
      DecisionTree::FitRegressor(b.view(), grad, hess, AllRows(1000), config, train_rng);
  double lo = 0.2, hi = 0.8;
  EXPECT_NEAR(tree.PredictValue({&lo, 1}), 2.0, 0.05);
  EXPECT_NEAR(tree.PredictValue({&hi, 1}), -1.0, 0.05);
}

// Boosting scores its sampled rows from the leaf values training routed them
// to, without walking the tree; each must be the value the walk gives.
TEST(DecisionTreeTest, RegressorRowValuesMatchPredictValue) {
  Dataset d({"x", "y", "z"});
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    double row[] = {rng.Normal(0.0, 1.0), static_cast<double>(rng.UniformInt(0, 3)),
                    rng.NextDouble() < 0.5 ? -1.0 : 1.0};
    d.AddRow(row, 0);
  }
  Binned b(std::move(d));
  std::vector<double> grad(2000), hess(2000);
  for (size_t i = 0; i < grad.size(); ++i) {
    grad[i] = rng.Normal(b.data.Value(i, 0) * b.data.Value(i, 2), 1.0);
    hess[i] = 0.5 + rng.NextDouble();
  }
  std::vector<uint32_t> rows;  // a subsample, ascending, as boosting draws it
  for (uint32_t i = 0; i < 2000; ++i) {
    if (rng.NextDouble() < 0.8) rows.push_back(i);
  }
  const double unset = -12345.0;
  std::vector<double> row_values(2000, unset);
  TreeConfig config;
  config.max_depth = 6;
  DecisionTree tree =
      DecisionTree::FitRegressor(b.view(), grad, hess, rows, config, rng, row_values);
  ASSERT_GT(tree.leaf_count(), 4u);
  size_t next = 0;
  for (size_t i = 0; i < 2000; ++i) {
    if (next < rows.size() && rows[next] == i) {
      ++next;
      const double walked = tree.PredictValue(b.data.Row(i));
      EXPECT_EQ(std::memcmp(&row_values[i], &walked, sizeof(double)), 0) << "row " << i;
    } else {
      EXPECT_EQ(row_values[i], unset) << "row " << i << " was not sampled";
    }
  }
}

TEST(DecisionTreeTest, RegressionLambdaShrinksLeaves) {
  Dataset d({"x"});
  std::vector<double> grad, hess;
  for (int i = 0; i < 10; ++i) {
    double v = 0.0;
    d.AddRow({&v, 1}, 0);
    grad.push_back(-1.0);
    hess.push_back(1.0);
  }
  Binned b(std::move(d));
  Rng rng(17);
  TreeConfig no_reg;
  no_reg.lambda = 0.0;
  TreeConfig reg;
  reg.lambda = 10.0;
  double x = 0.0;
  DecisionTree t0 = DecisionTree::FitRegressor(b.view(), grad, hess, AllRows(10), no_reg, rng);
  DecisionTree t1 = DecisionTree::FitRegressor(b.view(), grad, hess, AllRows(10), reg, rng);
  EXPECT_NEAR(t0.PredictValue({&x, 1}), 1.0, 1e-9);
  EXPECT_NEAR(t1.PredictValue({&x, 1}), 0.5, 1e-9);
}

TEST(DecisionTreeTest, EmptyRowsThrows) {
  Dataset d({"x"});
  double v = 0.0;
  d.AddRow({&v, 1}, 0);
  Binned b(std::move(d));
  Rng rng(18);
  EXPECT_THROW(DecisionTree::FitClassifier(b.view(), b.data.labels(), {}, 2, TreeConfig{},
                                           rng),
               std::invalid_argument);
}

class TreeDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreeDepthSweep, DeeperTreesFitTighter) {
  int depth = GetParam();
  Rng rng(19);
  Dataset d({"x", "y"});
  for (int i = 0; i < 4000; ++i) {
    double row[2] = {rng.NextDouble(), rng.NextDouble()};
    bool interval = (row[0] > 0.25 && row[0] < 0.5) || row[0] > 0.75;
    int label = interval && row[1] > 0.3 ? 1 : 0;
    d.AddRow(row, label);
  }
  Binned b(std::move(d));
  TreeConfig config;
  config.max_depth = depth;
  Rng train_rng(20);
  DecisionTree tree = DecisionTree::FitClassifier(b.view(), b.data.labels(), AllRows(4000),
                                                  2, config, train_rng);
  // The target needs ~4 axis-aligned cuts; deep trees should recover it up
  // to quantile-binning resolution, a depth-1 stump cannot.
  int correct = 0;
  std::vector<double> probs(2);
  for (size_t i = 0; i < b.data.num_rows(); ++i) {
    tree.PredictProba(b.data.Row(i), probs);
    if ((probs[1] > 0.5 ? 1 : 0) == b.data.Label(i)) ++correct;
  }
  double acc = static_cast<double>(correct) / static_cast<double>(b.data.num_rows());
  if (depth >= 6) {
    EXPECT_GT(acc, 0.96);
  } else if (depth <= 1) {
    EXPECT_LT(acc, 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthSweep, ::testing::Values(1, 2, 4, 6, 10));

}  // namespace
}  // namespace rc::ml
