// Bit-exactness parity suite for the compiled execution engine: across
// randomized forests / GBTs, feature counts, depths, class counts, and
// NaN/infinity inputs, ExecEngine output must be EXACTLY equal (EXPECT_EQ on
// doubles, no tolerance) to the legacy per-tree AoS traversal. The engine is
// a pure representation change; any ULP of drift is a compile bug.
#include "src/ml/exec_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/ml/gbt.h"
#include "src/ml/random_forest.h"

namespace rc::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Random dataset whose labels loosely depend on the features, so the trees
// grow real structure instead of collapsing to the root.
Dataset RandomDataset(size_t rows, size_t features, int classes, Rng& rng) {
  std::vector<std::string> names;
  for (size_t f = 0; f < features; ++f) names.push_back("f" + std::to_string(f));
  Dataset data(std::move(names));
  std::vector<double> row(features);
  for (size_t i = 0; i < rows; ++i) {
    double signal = 0.0;
    for (size_t f = 0; f < features; ++f) {
      row[f] = rng.Uniform(-5.0, 5.0);
      if (f % 3 == 0) signal += row[f];
    }
    int label = static_cast<int>(std::fmod(std::fabs(signal), classes));
    if (rng.Bernoulli(0.1)) label = static_cast<int>(rng.UniformInt(0, classes - 1));
    data.AddRow(row, label);
  }
  // Guarantee every class appears so NumClasses() == classes.
  for (int c = 0; c < classes; ++c) {
    for (size_t f = 0; f < features; ++f) row[f] = static_cast<double>(c);
    data.AddRow(row, c);
  }
  return data;
}

// Test vectors: random rows plus adversarial NaN / infinity patterns (NaN
// compares false against every threshold, so it must always go right —
// in both traversals).
std::vector<std::vector<double>> TestRows(size_t features, Rng& rng) {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 64; ++i) {
    std::vector<double> row(features);
    for (auto& v : row) v = rng.Uniform(-6.0, 6.0);
    rows.push_back(std::move(row));
  }
  rows.push_back(std::vector<double>(features, kNaN));
  rows.push_back(std::vector<double>(features, kInf));
  rows.push_back(std::vector<double>(features, -kInf));
  std::vector<double> mixed(features);
  for (size_t f = 0; f < features; ++f) {
    mixed[f] = f % 3 == 0 ? kNaN : (f % 3 == 1 ? kInf : -1.5);
  }
  rows.push_back(std::move(mixed));
  return rows;
}

void ExpectExactlyEqual(std::span<const double> legacy, std::span<const double> engine) {
  ASSERT_EQ(legacy.size(), engine.size());
  for (size_t c = 0; c < legacy.size(); ++c) {
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: bit-exact, zero ULP of tolerance.
    EXPECT_EQ(legacy[c], engine[c]) << "class " << c;
  }
}

TEST(ExecEngineParityTest, RandomForestAcrossShapes) {
  Rng rng(101);
  struct Shape {
    size_t features;
    int classes;
    int trees;
    int depth;
  };
  for (const Shape& s : {Shape{1, 2, 3, 2}, Shape{7, 3, 8, 4}, Shape{23, 4, 16, 9},
                         Shape{64, 4, 12, 14}}) {
    Dataset data = RandomDataset(600, s.features, s.classes, rng);
    RandomForestConfig config;
    config.num_trees = s.trees;
    config.tree.max_depth = s.depth;
    config.seed = rng.NextU64();
    RandomForest forest = RandomForest::Fit(data, config);
    ASSERT_NE(forest.engine(), nullptr);
    EXPECT_EQ(forest.engine()->family(), ExecEngine::Family::kAveragedForest);
    EXPECT_EQ(forest.engine()->tree_count(), forest.tree_count());

    std::vector<double> engine_out(static_cast<size_t>(s.classes));
    for (const auto& row : TestRows(s.features, rng)) {
      auto legacy = forest.PredictProbaLegacy(row);
      forest.engine()->PredictBatch(row.data(), 1, row.size(), engine_out.data());
      ExpectExactlyEqual(legacy, engine_out);
    }
  }
}

TEST(ExecEngineParityTest, GbtBinaryAndMulticlass) {
  Rng rng(202);
  struct Shape {
    size_t features;
    int classes;
    int rounds;
    int depth;
  };
  for (const Shape& s : {Shape{2, 2, 6, 3}, Shape{11, 2, 12, 6}, Shape{9, 3, 8, 5},
                         Shape{31, 4, 10, 6}}) {
    Dataset data = RandomDataset(600, s.features, s.classes, rng);
    GbtConfig config;
    config.num_rounds = s.rounds;
    config.tree.max_depth = s.depth;
    config.seed = rng.NextU64();
    GradientBoostedTrees model = GradientBoostedTrees::Fit(data, config);
    ASSERT_NE(model.engine(), nullptr);
    EXPECT_EQ(model.engine()->family(), ExecEngine::Family::kBoosted);

    std::vector<double> engine_out(static_cast<size_t>(s.classes));
    for (const auto& row : TestRows(s.features, rng)) {
      auto legacy = model.PredictProbaLegacy(row);
      model.engine()->PredictBatch(row.data(), 1, row.size(), engine_out.data());
      ExpectExactlyEqual(legacy, engine_out);
    }
  }
}

TEST(ExecEngineParityTest, BatchMatchesSingleAtEveryIndexAndStride) {
  Rng rng(303);
  const size_t features = 13;
  Dataset data = RandomDataset(500, features, 3, rng);
  RandomForestConfig rf_config;
  rf_config.num_trees = 10;
  rf_config.tree.max_depth = 8;
  RandomForest forest = RandomForest::Fit(data, rf_config);
  GbtConfig gbt_config;
  gbt_config.num_rounds = 6;
  GradientBoostedTrees gbt = GradientBoostedTrees::Fit(data, gbt_config);

  // Every batch row must equal the same row scored alone (n == 1) and the
  // legacy per-tree traversal, through the classifier's one entry point.
  auto check = [&](const auto& model) {
    const size_t k = static_cast<size_t>(model.num_classes());
    for (size_t n : {size_t{1}, size_t{2}, size_t{8}, size_t{65}}) {
      // stride > features exercises the padded-row form the client arena uses.
      for (size_t stride : {features, features + 3}) {
        std::vector<double> X(n * stride, 0.25);
        for (size_t i = 0; i < n; ++i) {
          for (size_t f = 0; f < features; ++f) {
            X[i * stride + f] = rng.Uniform(-4.0, 4.0);
          }
        }
        if (n > 2) X[2 * stride] = kNaN;  // a NaN row inside the batch
        std::vector<double> batch_out(n * k);
        model.PredictBatch(X.data(), n, stride, batch_out.data());
        std::vector<double> single(k);
        for (size_t i = 0; i < n; ++i) {
          const std::span<const double> row(X.data() + i * stride, features);
          model.PredictBatch(row.data(), 1, row.size(), single.data());
          ExpectExactlyEqual(single, {batch_out.data() + i * k, k});
          ExpectExactlyEqual(model.PredictProbaLegacy(row), {batch_out.data() + i * k, k});
        }
      }
    }
  };
  check(forest);
  check(gbt);
}

TEST(ExecEngineParityTest, SurvivesSerializationRoundTrip) {
  Rng rng(404);
  Dataset data = RandomDataset(400, 9, 4, rng);
  RandomForestConfig config;
  config.num_trees = 6;
  RandomForest forest = RandomForest::Fit(data, config);
  auto restored = Classifier::DeserializeTagged(forest.SerializeTagged());
  ASSERT_NE(restored->engine(), nullptr);
  std::vector<double> a(4), b(4);
  for (const auto& row : TestRows(9, rng)) {
    forest.PredictBatch(row.data(), 1, row.size(), a.data());
    restored->PredictBatch(row.data(), 1, row.size(), b.data());
    ExpectExactlyEqual(a, b);
  }
}

TEST(ExecEngineTest, PoolAccountingMatchesTreeStructure) {
  Rng rng(606);
  Dataset data = RandomDataset(500, 8, 3, rng);
  RandomForestConfig config;
  config.num_trees = 7;
  config.tree.max_depth = 6;
  RandomForest forest = RandomForest::Fit(data, config);
  size_t nodes = 0, leaves = 0;
  for (size_t t = 0; t < forest.tree_count(); ++t) {
    nodes += forest.tree(t).node_count();
    leaves += forest.tree(t).leaf_count();
  }
  const ExecEngine& engine = *forest.engine();
  EXPECT_EQ(engine.internal_node_count(), nodes - leaves);
  EXPECT_EQ(engine.leaf_payload_count(), leaves);
  EXPECT_EQ(engine.num_features(), forest.num_features());
  EXPECT_EQ(engine.num_classes(), forest.num_classes());
}

TEST(ExecEngineTest, TryCompileDispatchesOnConcreteType) {
  Rng rng(707);
  Dataset data = RandomDataset(300, 4, 2, rng);
  RandomForestConfig config;
  config.num_trees = 3;
  RandomForest forest = RandomForest::Fit(data, config);
  auto engine = ExecEngine::TryCompile(forest);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->family(), ExecEngine::Family::kAveragedForest);

  class Opaque final : public Classifier {
   public:
    int num_classes() const override { return 2; }
    int num_features() const override { return 1; }
    void PredictBatch(const double*, size_t n, size_t, double* proba_out) const override {
      std::fill(proba_out, proba_out + 2 * n, 0.5);
    }
    const char* type_name() const override { return "opaque"; }
    void Serialize(ByteWriter&) const override {}
  };
  Opaque opaque;
  EXPECT_EQ(ExecEngine::TryCompile(opaque), nullptr);
}

}  // namespace
}  // namespace rc::ml
