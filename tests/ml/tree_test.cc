#include "src/ml/tree.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

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

// Histogram subtraction: a parent's histograms minus its smaller child's
// give the larger child's. Counts must match a direct count exactly. A sum
// differs from the larger child's direct sum only by rounding: the three
// sums (parent, smaller child, larger child) each add at most p terms drawn
// from the bin's parent rows, and one subtraction follows, so with p the
// bin's parent row count and A the sum of |x| over those rows the two agree
// within 2 * p * DBL_EPSILON * A.
TEST(GradHistogramKernelTest, SubtractionGivesSiblingCountsExactlySumsWithinRounding) {
  constexpr size_t kRows = 6000;
  constexpr size_t kFeatures = 5;
  constexpr size_t kBins = 64;
  Rng rng(29);
  std::vector<uint8_t> bins(kRows * kFeatures);
  for (auto& b : bins) b = static_cast<uint8_t>(rng.UniformInt(0, kBins - 1));
  std::vector<double> grad(kRows), hess(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    grad[i] = rng.Normal(0.0, 1.0) * std::pow(10.0, rng.UniformInt(-6, 6));
    hess[i] = rng.NextDouble() * std::pow(10.0, rng.UniformInt(-9, 3));
  }
  std::vector<uint32_t> parent_rows = AllRows(kRows);
  rng.Shuffle(parent_rows);
  parent_rows.resize(kRows * 2 / 3);

  struct Hists {
    std::vector<GradPair> sums = std::vector<GradPair>(kFeatures * kBins);
    std::vector<uint32_t> counts = std::vector<uint32_t>(kFeatures * kBins, 0);
  };
  auto build = [&](std::span<const uint32_t> rows) {
    Hists out;
    std::vector<GradPair> gh(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) gh[i] = GradPair{grad[rows[i]], hess[rows[i]]};
    std::vector<GradHistogram> hists;
    for (size_t f = 0; f < kFeatures; ++f) {
      hists.push_back({bins.data() + f * kRows, out.sums.data() + f * kBins,
                       out.counts.data() + f * kBins});
    }
    BuildGradHistograms(rows, gh.data(), hists);
    return out;
  };

  // A balanced split on feature 0 and a lopsided one on feature 1 (about 5%
  // of the rows go left), each partitioned in place as the trainer does.
  for (const auto& [split_feature, split_bin] : {std::pair<size_t, int>{0, 31}, {1, 2}}) {
    SCOPED_TRACE(split_feature);
    std::vector<uint32_t> rows = parent_rows;
    const uint8_t* col = bins.data() + split_feature * kRows;
    const auto mid = static_cast<size_t>(
        std::partition(rows.begin(), rows.end(),
                       [&](uint32_t r) { return col[r] <= split_bin; }) - rows.begin());
    const std::span<const uint32_t> left(rows.data(), mid);
    const std::span<const uint32_t> right(rows.data() + mid, rows.size() - mid);
    const bool left_smaller = left.size() <= right.size();
    const std::span<const uint32_t> smaller_rows = left_smaller ? left : right;
    const std::span<const uint32_t> larger_rows = left_smaller ? right : left;

    Hists derived = build(rows);
    const Hists smaller = build(smaller_rows);
    const Hists direct = build(larger_rows);
    SubtractGradHistograms(derived.sums, derived.counts, smaller.sums, smaller.counts);

    std::vector<double> abs_g(kFeatures * kBins, 0.0), abs_h(kFeatures * kBins, 0.0);
    std::vector<uint32_t> parent_count(kFeatures * kBins, 0);
    for (uint32_t r : rows) {
      for (size_t f = 0; f < kFeatures; ++f) {
        const size_t slot = f * kBins + bins[f * kRows + r];
        abs_g[slot] += std::abs(grad[r]);
        abs_h[slot] += std::abs(hess[r]);
        parent_count[slot] += 1;
      }
    }
    for (size_t slot = 0; slot < kFeatures * kBins; ++slot) {
      ASSERT_EQ(derived.counts[slot], direct.counts[slot]) << "slot " << slot;
      const double p = static_cast<double>(parent_count[slot]);
      EXPECT_LE(std::abs(derived.sums[slot].g - direct.sums[slot].g),
                2.0 * p * DBL_EPSILON * abs_g[slot])
          << "slot " << slot;
      EXPECT_LE(std::abs(derived.sums[slot].h - direct.sums[slot].h),
                2.0 * p * DBL_EPSILON * abs_h[slot])
          << "slot " << slot;
    }
  }
}

// The gradient split search as it was before histogram subtraction: every
// searching node sums every feature's histogram from its own rows, one
// feature at a time, then scans it with the same gain rule. Rows are
// partitioned in place with the same std::partition, so node order, leaf
// sums and row values follow the same additions as FitRegressor's.
class DirectHistogramRegressor {
 public:
  struct Tree {
    std::vector<DecisionTree::Node> nodes;
    std::vector<double> leaf_values;
  };

  DirectHistogramRegressor(const BinnedView& data, std::span<const double> grad,
                           std::span<const double> hess, const TreeConfig& config,
                           std::span<double> row_values)
      : data_(data), grad_(grad), hess_(hess), config_(config), row_values_(row_values) {}

  Tree Fit(std::span<const uint32_t> rows) {
    idx_.assign(rows.begin(), rows.end());
    Build(0, idx_.size(), 0);
    return std::move(tree_);
  }

 private:
  int32_t Build(size_t begin, size_t end, int depth) {
    const size_t n = end - begin;
    const auto id = static_cast<int32_t>(tree_.nodes.size());
    tree_.nodes.emplace_back();
    bool found = false;
    size_t best_f = 0;
    int best_b = 0;
    double best_gain = 0.0;
    if (depth < config_.max_depth && n >= 2 * static_cast<size_t>(config_.min_samples_leaf)) {
      double g_total = 0.0, h_total = 0.0;
      for (size_t i = begin; i < end; ++i) {
        g_total += grad_[idx_[i]];
        h_total += hess_[idx_[i]];
      }
      const double parent_score = g_total * g_total / (h_total + kLambda);
      for (size_t f = 0; f < data_.features; ++f) {
        const int bins = data_.binner->NumBins(f);
        if (bins < 2) continue;
        std::vector<double> g(static_cast<size_t>(bins), 0.0), h(static_cast<size_t>(bins), 0.0);
        std::vector<size_t> c(static_cast<size_t>(bins), 0);
        for (size_t i = begin; i < end; ++i) {
          const uint8_t b = data_.Bin(idx_[i], f);
          g[b] += grad_[idx_[i]];
          h[b] += hess_[idx_[i]];
          c[b] += 1;
        }
        double g_left = 0.0, h_left = 0.0;
        size_t n_left = 0;
        for (int b = 0; b < bins - 1; ++b) {
          g_left += g[static_cast<size_t>(b)];
          h_left += h[static_cast<size_t>(b)];
          n_left += c[static_cast<size_t>(b)];
          if (n_left < static_cast<size_t>(config_.min_samples_leaf) ||
              n - n_left < static_cast<size_t>(config_.min_samples_leaf)) {
            continue;
          }
          const double g_right = g_total - g_left;
          const double h_right = h_total - h_left;
          const double gain = g_left * g_left / (h_left + kLambda) +
                              g_right * g_right / (h_right + kLambda) - parent_score;
          if (gain > best_gain + kMinGain) {
            found = true;
            best_f = f;
            best_b = b;
            best_gain = gain;
          }
        }
      }
    }
    size_t mid = begin;
    if (found) {
      mid = static_cast<size_t>(
          std::partition(idx_.begin() + static_cast<std::ptrdiff_t>(begin),
                         idx_.begin() + static_cast<std::ptrdiff_t>(end),
                         [&](uint32_t r) { return data_.Bin(r, best_f) <= best_b; }) -
          idx_.begin());
    }
    if (!found || mid == begin || mid == end) {
      double g = 0.0, h = 0.0;
      for (size_t i = begin; i < end; ++i) {
        g += grad_[idx_[i]];
        h += hess_[idx_[i]];
      }
      const double value = -g / (h + kLambda);
      tree_.nodes[static_cast<size_t>(id)].payload = static_cast<int32_t>(tree_.leaf_values.size());
      tree_.leaf_values.push_back(value);
      for (size_t i = begin; i < end; ++i) row_values_[idx_[i]] = value;
      return id;
    }
    tree_.nodes[static_cast<size_t>(id)].feature = static_cast<int32_t>(best_f);
    tree_.nodes[static_cast<size_t>(id)].threshold = data_.binner->SplitThreshold(best_f, best_b);
    const int32_t left = Build(begin, mid, depth + 1);
    const int32_t right = Build(mid, end, depth + 1);
    tree_.nodes[static_cast<size_t>(id)].left = left;
    tree_.nodes[static_cast<size_t>(id)].right = right;
    return id;
  }

  const BinnedView& data_;
  std::span<const double> grad_;
  std::span<const double> hess_;
  const TreeConfig& config_;
  std::span<double> row_values_;
  std::vector<uint32_t> idx_;
  Tree tree_;
};

// FitRegressor derives the larger child's histograms by subtraction; the
// trees must still be byte-identical to the direct search's: every node,
// every threshold, every leaf value and every row value. The problems mix
// continuous, small-integer and two-valued features, put a heavy mass on
// one value (so many splits are lopsided), weight the gradients by class as
// boosting does, and train on a subsample.
TEST(DecisionTreeTest, RegressorMatchesDirectHistogramReference) {
  for (uint64_t seed : {31u, 32u, 33u, 34u, 35u, 36u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    constexpr size_t kRows = 4000;
    Dataset d({"normal", "skewed", "small_int", "two_valued", "lopsided", "uniform"});
    std::vector<int> labels(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      const double lopsided = rng.NextDouble() < 0.95 ? 0.0 : rng.Normal(5.0, 2.0);
      double row[] = {rng.Normal(0.0, 1.0), std::exp(rng.Normal(0.0, 2.0)),
                      static_cast<double>(rng.UniformInt(0, 9)),
                      rng.NextDouble() < 0.2 ? -1.0 : 1.0, lopsided, rng.NextDouble()};
      const double z = row[0] + 0.5 * row[2] * row[3] + (lopsided > 4.0 ? 3.0 : 0.0) +
                       rng.Normal(0.0, 0.5);
      labels[i] = z < 0.0 ? 0 : (z < 3.0 ? 1 : 2);
      d.AddRow(row, labels[i]);
    }
    Binned b(std::move(d));
    // One class's softmax gradient from uniform scores, weighted by class.
    const double weights[] = {1.0, 2.0, 0.5};
    std::vector<double> grad(kRows), hess(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      const double p = 1.0 / 3.0 + 0.05 * rng.Normal(0.0, 1.0);
      const double w = weights[labels[i]];
      grad[i] = w * (p - (labels[i] == 1 ? 1.0 : 0.0));
      hess[i] = std::max(w * p * (1.0 - p), 1e-9);
    }
    std::vector<uint32_t> rows;
    for (uint32_t i = 0; i < kRows; ++i) {
      if (seed % 2 == 0 || rng.NextDouble() < 0.8) rows.push_back(i);
    }
    TreeConfig config;
    config.max_depth = 4 + static_cast<int>(seed % 4);
    config.min_samples_leaf = seed % 3 == 0 ? 1 : 8;

    std::vector<double> got_values(kRows, 0.0), want_values(kRows, 0.0);
    const DecisionTree tree =
        DecisionTree::FitRegressor(b.view(), grad, hess, rows, config, got_values);
    const DirectHistogramRegressor::Tree want =
        DirectHistogramRegressor(b.view(), grad, hess, config, want_values).Fit(rows);

    ASSERT_GT(tree.node_count(), 20u);
    ASSERT_EQ(tree.node_count(), want.nodes.size());
    for (size_t i = 0; i < want.nodes.size(); ++i) {
      const DecisionTree::Node& g = tree.nodes()[i];
      const DecisionTree::Node& w = want.nodes[i];
      EXPECT_EQ(g.feature, w.feature) << "node " << i;
      EXPECT_EQ(std::memcmp(&g.threshold, &w.threshold, sizeof(double)), 0) << "node " << i;
      EXPECT_EQ(g.left, w.left) << "node " << i;
      EXPECT_EQ(g.right, w.right) << "node " << i;
      EXPECT_EQ(g.payload, w.payload) << "node " << i;
    }
    ASSERT_EQ(tree.leaf_values().size(), want.leaf_values.size());
    EXPECT_EQ(std::memcmp(tree.leaf_values().data(), want.leaf_values.data(),
                          want.leaf_values.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(got_values.data(), want_values.data(), kRows * sizeof(double)), 0);
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
                                                  TreeConfig{}, 0, train_rng);
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
                                                  TreeConfig{}, 0, rng);
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
                                                  2, config, 0, train_rng);
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
                                                  config, 0, train_rng);
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
      DecisionTree::FitClassifier(b.view(), b.data.labels(), rows, 2, config, 0, rng);
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
                                                  2, TreeConfig{}, 0, train_rng);
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
                                                  2, TreeConfig{}, 0, train_rng);
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
  // Newton step with constant hessian 1: leaf value = sum(-grad) / (n +
  // kLambda). Fit to residuals of y: grad = -(y), hess = 1 => a leaf of
  // hundreds of rows predicts close to mean(y).
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
  DecisionTree tree =
      DecisionTree::FitRegressor(b.view(), grad, hess, AllRows(1000), TreeConfig{});
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
      DecisionTree::FitRegressor(b.view(), grad, hess, rows, config, row_values);
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
  DecisionTree tree =
      DecisionTree::FitRegressor(b.view(), grad, hess, AllRows(10), TreeConfig{});
  // One leaf, G = -10 and H = 10: -G / (H + kLambda) = 10/11, not the
  // unregularized 1.
  double x = 0.0;
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_NEAR(tree.PredictValue({&x, 1}), 10.0 / (10.0 + kLambda), 1e-12);
  EXPECT_NEAR(tree.PredictValue({&x, 1}), 10.0 / 11.0, 1e-12);
}

TEST(DecisionTreeTest, EmptyRowsThrows) {
  Dataset d({"x"});
  double v = 0.0;
  d.AddRow({&v, 1}, 0);
  Binned b(std::move(d));
  Rng rng(18);
  EXPECT_THROW(DecisionTree::FitClassifier(b.view(), b.data.labels(), {}, 2, TreeConfig{}, 0,
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
                                                  2, config, 0, train_rng);
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
