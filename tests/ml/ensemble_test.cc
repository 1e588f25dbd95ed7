// Random Forest and Gradient Boosted Trees behaviour, serialization, and the
// classifier registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/ml/bytes.h"
#include "src/ml/gbt.h"
#include "src/ml/link_functions.h"
#include "src/ml/random_forest.h"

namespace rc::ml {
namespace {

// Noisy 3-class problem over 3 features.
Dataset MakeMulticlass(uint64_t seed, int n) {
  Rng rng(seed);
  Dataset d({"x0", "x1", "x2"});
  for (int i = 0; i < n; ++i) {
    double row[3] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    int label = row[0] + 0.5 * row[1] > 0.8 ? (row[2] > 0.5 ? 2 : 1) : 0;
    if (rng.Bernoulli(0.05)) label = static_cast<int>(rng.UniformInt(0, 2));
    d.AddRow(row, label);
  }
  return d;
}

// One example through the single prediction entry point (n == 1).
std::vector<double> Proba(const Classifier& model, std::span<const double> x) {
  std::vector<double> probs(static_cast<size_t>(model.num_classes()));
  model.PredictBatch(x.data(), 1, x.size(), probs.data());
  return probs;
}

int Label(const Classifier& model, std::span<const double> x) {
  return Argmax(Proba(model, x)).label;
}

std::vector<uint8_t> TreeBytes(const DecisionTree& tree) {
  ByteWriter w;
  tree.Serialize(w);
  return w.TakeBytes();
}

double Accuracy(const Classifier& model, const Dataset& test) {
  int correct = 0;
  for (size_t i = 0; i < test.num_rows(); ++i) {
    if (Label(model, test.Row(i)) == test.Label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.num_rows());
}

TEST(RandomForestTest, LearnsMulticlass) {
  Dataset train = MakeMulticlass(1, 6000);
  Dataset test = MakeMulticlass(2, 2000);
  RandomForestConfig config;
  config.num_trees = 30;
  RandomForest forest = RandomForest::Fit(train, config);
  EXPECT_EQ(forest.num_classes(), 3);
  EXPECT_EQ(forest.num_features(), 3);
  EXPECT_EQ(forest.tree_count(), 30u);
  EXPECT_GT(Accuracy(forest, test), 0.9);
}

TEST(RandomForestTest, ProbabilitiesNormalized) {
  Dataset train = MakeMulticlass(3, 2000);
  RandomForestConfig config;
  config.num_trees = 10;
  RandomForest forest = RandomForest::Fit(train, config);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    double row[3] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    auto probs = Proba(forest, row);
    double sum = probs[0] + probs[1] + probs[2];
    ASSERT_NEAR(sum, 1.0, 1e-6);  // leaf distributions are floats
    for (double p : probs) ASSERT_GE(p, 0.0);
  }
}

// The forest, which fits its trees on several threads, pinned to a serial
// fit: tree t takes the t-th seed drawn from Rng(seed), draws a bootstrap
// sample of every row count from that seed's Rng, and searches sqrt(F)
// features per node with the same Rng.
TEST(RandomForestTest, TreesMatchASerialFit) {
  const Dataset train = MakeMulticlass(5, 1500);
  RandomForestConfig config;
  config.num_trees = 8;
  config.seed = 3;
  const RandomForest forest = RandomForest::Fit(train, config);

  const size_t n = train.num_rows();
  ASSERT_EQ(forest.tree_count(), 8u);
  const FeatureBinner binner = FeatureBinner::Fit(train);
  const std::vector<uint8_t> bins = binner.Transform(train);
  const BinnedView view{bins.data(), n, train.num_features(), &binner};
  const int max_features = 1;  // sqrt(3 features), rounded down
  Rng seeder(config.seed);
  std::vector<uint32_t> rows(n);
  for (size_t t = 0; t < forest.tree_count(); ++t) {
    Rng rng(seeder.NextU64());
    for (auto& row : rows) {
      row = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    const DecisionTree tree = DecisionTree::FitClassifier(view, train.labels(), rows, 3,
                                                          config.tree, max_features, rng);
    ASSERT_EQ(TreeBytes(tree), TreeBytes(forest.tree(t))) << "tree " << t;
  }
}

TEST(RandomForestTest, SerializationRoundTrip) {
  Dataset train = MakeMulticlass(7, 2000);
  RandomForestConfig config;
  config.num_trees = 12;
  RandomForest forest = RandomForest::Fit(train, config);
  auto bytes = forest.SerializeTagged();
  auto restored = Classifier::DeserializeTagged(bytes);
  EXPECT_STREQ(restored->type_name(), "random_forest");
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    double row[3] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    auto pa = Proba(forest, row);
    auto pb = Proba(*restored, row);
    for (size_t c = 0; c < pa.size(); ++c) ASSERT_EQ(pa[c], pb[c]);
  }
}

TEST(RandomForestTest, FeatureImportanceIdentifiesSignal) {
  Rng rng(9);
  Dataset d({"noise0", "signal", "noise1"});
  for (int i = 0; i < 4000; ++i) {
    double row[3] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    d.AddRow(row, row[1] > 0.55 ? 1 : 0);
  }
  RandomForestConfig config;
  config.num_trees = 20;
  RandomForest forest = RandomForest::Fit(d, config);
  auto importance = forest.FeatureImportance();
  ASSERT_EQ(importance.size(), 3u);
  EXPECT_GT(importance[1], 0.7);
  EXPECT_NEAR(importance[0] + importance[1] + importance[2], 1.0, 1e-9);
}

TEST(RandomForestTest, EmptyDataThrows) {
  Dataset d({"x"});
  EXPECT_THROW(RandomForest::Fit(d, RandomForestConfig{}), std::invalid_argument);
}

TEST(GbtTest, LearnsMulticlass) {
  Dataset train = MakeMulticlass(11, 6000);
  Dataset test = MakeMulticlass(12, 2000);
  GbtConfig config;
  config.num_rounds = 40;
  GradientBoostedTrees model = GradientBoostedTrees::Fit(train, config);
  EXPECT_EQ(model.num_classes(), 3);
  EXPECT_EQ(model.tree_count(), 40u * 3u);  // K trees per round
  EXPECT_GT(Accuracy(model, test), 0.9);
}

TEST(GbtTest, BinaryUsesSingleTreePerRound) {
  Rng rng(13);
  Dataset train({"a", "b"});
  for (int i = 0; i < 3000; ++i) {
    double row[2] = {rng.NextDouble(), rng.NextDouble()};
    train.AddRow(row, row[0] * row[0] + row[1] > 0.9 ? 1 : 0);
  }
  GbtConfig config;
  config.num_rounds = 30;
  GradientBoostedTrees model = GradientBoostedTrees::Fit(train, config);
  EXPECT_EQ(model.tree_count(), 30u);
  EXPECT_GT(Accuracy(model, train), 0.97);
}

TEST(GbtTest, ProbabilitiesNormalized) {
  Dataset train = MakeMulticlass(14, 1500);
  GbtConfig config;
  config.num_rounds = 10;
  GradientBoostedTrees model = GradientBoostedTrees::Fit(train, config);
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    double row[3] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    auto probs = Proba(model, row);
    ASSERT_NEAR(probs[0] + probs[1] + probs[2], 1.0, 1e-9);
  }
}

TEST(GbtTest, MoreRoundsReduceTrainLoss) {
  Dataset train = MakeMulticlass(16, 3000);
  GbtConfig short_config;
  short_config.num_rounds = 3;
  GbtConfig long_config;
  long_config.num_rounds = 40;
  auto short_model = GradientBoostedTrees::Fit(train, short_config);
  auto long_model = GradientBoostedTrees::Fit(train, long_config);
  EXPECT_GT(Accuracy(long_model, train), Accuracy(short_model, train));
}

TEST(GbtTest, ClassWeightBoostsMinorityRecall) {
  // Imbalanced binary problem with overlapping classes: upweighting the
  // rare class must increase its recall.
  Rng rng(17);
  Dataset train({"x"});
  auto make = [&](Dataset& d, int n) {
    for (int i = 0; i < n; ++i) {
      bool rare = rng.Bernoulli(0.03);
      double v = rare ? rng.Normal(0.6, 0.2) : rng.Normal(0.4, 0.2);
      d.AddRow({&v, 1}, rare ? 1 : 0);
    }
  };
  make(train, 8000);
  Dataset test({"x"});
  make(test, 4000);

  GbtConfig plain;
  plain.num_rounds = 20;
  GbtConfig weighted = plain;
  weighted.class_weights = {1.0, 25.0};

  auto recall = [&](const Classifier& m) {
    int tp = 0, fn = 0;
    for (size_t i = 0; i < test.num_rows(); ++i) {
      if (test.Label(i) != 1) continue;
      if (Label(m, test.Row(i)) == 1) {
        ++tp;
      } else {
        ++fn;
      }
    }
    return static_cast<double>(tp) / static_cast<double>(tp + fn);
  };
  auto m_plain = GradientBoostedTrees::Fit(train, plain);
  auto m_weighted = GradientBoostedTrees::Fit(train, weighted);
  EXPECT_GT(recall(m_weighted), recall(m_plain) + 0.2);
}

TEST(GbtTest, ClassWeightSizeValidated) {
  Dataset train = MakeMulticlass(18, 100);
  GbtConfig config;
  config.class_weights = {1.0, 2.0};  // 3 classes
  EXPECT_THROW(GradientBoostedTrees::Fit(train, config), std::invalid_argument);
}

// The multiclass fit, which grows a round's class trees on several threads,
// pinned to a serial reference of XGBoost's softmax objective: each round
// takes one softmax per row from the round-start scores, fits the k class
// trees one after another on the same binned matrix and rows, and
// moves the scores only after all k. Class weights cover the weighted
// gradient.
TEST(GbtTest, ClassTreesMatchASerialOnePassFit) {
  const Dataset train = MakeMulticlass(21, 3000);
  GbtConfig config;
  config.num_rounds = 6;
  config.seed = 7;
  config.class_weights = {1.0, 2.0, 0.5};
  const GradientBoostedTrees model = GradientBoostedTrees::Fit(train, config);

  const size_t n = train.num_rows();
  const size_t k = 3;
  ASSERT_EQ(model.tree_count(), static_cast<size_t>(config.num_rounds) * k);
  const FeatureBinner binner = FeatureBinner::Fit(train);
  const std::vector<uint8_t> bins = binner.Transform(train);
  const BinnedView view{bins.data(), n, train.num_features(), &binner};
  std::vector<double> scores(n * k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < k; ++c) scores[i * k + c] = model.base_score()[c];
  }

  Rng rng(config.seed);  // row subsamples
  std::vector<std::vector<double>> grad(k, std::vector<double>(n));
  std::vector<std::vector<double>> hess(k, std::vector<double>(n));
  std::vector<double> probs(k);
  for (int round = 0; round < config.num_rounds; ++round) {
    std::vector<uint32_t> rows;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(GradientBoostedTrees::kSubsample)) {
        rows.push_back(static_cast<uint32_t>(i));
      }
    }
    ASSERT_FALSE(rows.empty());
    for (size_t i = 0; i < n; ++i) {
      Softmax({&scores[i * k], k}, probs);
      const size_t label = static_cast<size_t>(train.Label(i));
      const double w = config.class_weights[label];
      for (size_t c = 0; c < k; ++c) {
        const double y = label == c ? 1.0 : 0.0;
        grad[c][i] = w * (probs[c] - y);
        hess[c][i] = std::max(w * probs[c] * (1.0 - probs[c]), 1e-9);
      }
    }
    std::vector<DecisionTree> trees;
    for (size_t c = 0; c < k; ++c) {
      trees.push_back(DecisionTree::FitRegressor(view, grad[c], hess[c], rows, config.tree));
      const size_t t = static_cast<size_t>(round) * k + c;
      ASSERT_EQ(TreeBytes(trees[c]), TreeBytes(model.tree(t))) << "round " << round
                                                               << " class " << c;
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < k; ++c) {
        scores[i * k + c] +=
            GradientBoostedTrees::kLearningRate * trees[c].PredictValue(train.Row(i));
      }
    }
  }
}

TEST(GbtTest, SerializationRoundTrip) {
  Dataset train = MakeMulticlass(19, 2000);
  GbtConfig config;
  config.num_rounds = 15;
  auto model = GradientBoostedTrees::Fit(train, config);
  auto restored = Classifier::DeserializeTagged(model.SerializeTagged());
  EXPECT_STREQ(restored->type_name(), "gbt");
  Rng rng(20);
  for (int i = 0; i < 200; ++i) {
    double row[3] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    auto pa = Proba(model, row);
    auto pb = Proba(*restored, row);
    for (size_t c = 0; c < pa.size(); ++c) ASSERT_EQ(pa[c], pb[c]);
  }
}

TEST(ClassifierRegistryTest, UnknownTagThrows) {
  ByteWriter w;
  w.String("mystery_model");
  auto bytes = w.TakeBytes();
  EXPECT_THROW(Classifier::DeserializeTagged(bytes), std::runtime_error);
}

TEST(ClassifierTest, ArgmaxPicksMaxProbability) {
  Dataset train = MakeMulticlass(21, 3000);
  RandomForestConfig config;
  config.num_trees = 10;
  RandomForest forest = RandomForest::Fit(train, config);
  Rng rng(22);
  for (int i = 0; i < 100; ++i) {
    double row[3] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    auto probs = Proba(forest, row);
    auto scored = Argmax(probs);
    double max_p = *std::max_element(probs.begin(), probs.end());
    ASSERT_EQ(scored.score, max_p);
    ASSERT_EQ(probs[static_cast<size_t>(scored.label)], max_p);
  }
}

// The scoring rule the client and offline evaluation share: ties go to the
// lower class index, and a later equal maximum never displaces an earlier one.
TEST(ClassifierTest, ArgmaxTiesGoToLowerIndex) {
  const std::vector<double> all_equal = {0.25, 0.25, 0.25, 0.25};
  EXPECT_EQ(Argmax(all_equal).label, 0);
  EXPECT_EQ(Argmax(all_equal).score, 0.25);
  const std::vector<double> tie_after_first = {0.1, 0.45, 0.0, 0.45};
  EXPECT_EQ(Argmax(tie_after_first).label, 1);
  EXPECT_EQ(Argmax(tie_after_first).score, 0.45);
  const std::vector<double> strict_last = {0.3, 0.3, 0.4};
  EXPECT_EQ(Argmax(strict_last).label, 2);
  const std::vector<double> single = {1.0};
  EXPECT_EQ(Argmax(single).label, 0);
  EXPECT_EQ(Argmax(single).score, 1.0);
}

}  // namespace
}  // namespace rc::ml
