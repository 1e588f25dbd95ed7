// Fuzz-style corruption tests for every deserializer that consumes bytes
// from the store or the disk cache. The contract under corruption is:
// decoding either throws (std::exception) or yields an object that is safe
// to query — it must never crash, read out of bounds, loop forever, or
// attempt an absurd allocation from a corrupt length field.
#include <cstring>
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/feature_data.h"
#include "src/core/model_spec.h"
#include "src/ml/classifier.h"
#include "src/ml/gbt.h"
#include "src/ml/random_forest.h"

namespace rc::ml {
namespace {

Dataset MakeDataset(uint64_t seed, int n) {
  Rng rng(seed);
  Dataset d({"x0", "x1", "x2"});
  for (int i = 0; i < n; ++i) {
    double row[3] = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    int label = row[0] + 0.5 * row[1] > 0.8 ? (row[2] > 0.5 ? 2 : 1) : 0;
    d.AddRow(row, label);
  }
  return d;
}

std::vector<uint8_t> SmallForestBytes() {
  RandomForestConfig config;
  config.num_trees = 4;
  config.tree.max_depth = 4;
  config.seed = 11;
  return RandomForest::Fit(MakeDataset(1, 300), config).SerializeTagged();
}

std::vector<uint8_t> SmallGbtBytes() {
  GbtConfig config;
  config.num_rounds = 4;
  config.tree.max_depth = 3;
  config.seed = 12;
  return GradientBoostedTrees::Fit(MakeDataset(2, 300), config).SerializeTagged();
}

// Decoding corrupted bytes must either throw or produce a model that can be
// queried without touching invalid memory. Returns true if decode succeeded.
bool DecodeAndExercise(const std::vector<uint8_t>& bytes) {
  std::unique_ptr<Classifier> model;
  try {
    model = Classifier::DeserializeTagged(bytes);
  } catch (const std::exception&) {
    return false;  // rejection is the expected outcome for most corruptions
  }
  // Survived decode: every query below must be memory-safe because the
  // deserializers validated node children, leaf payloads, and feature
  // indices against the ensemble header.
  int k = model->num_classes();
  int f = model->num_features();
  EXPECT_GE(k, 0);
  EXPECT_GE(f, 0);
  std::vector<double> x(static_cast<size_t>(f), 0.5);
  if (k > 0) {
    std::vector<double> proba(static_cast<size_t>(k));
    model->PredictBatch(x.data(), 1, x.size(), proba.data());
    auto scored = Argmax(proba);
    EXPECT_GE(scored.label, 0);
    EXPECT_LT(scored.label, k);
  }
  return true;
}

TEST(BytesFuzzTest, ForestTruncationAtEveryBoundaryThrows) {
  std::vector<uint8_t> bytes = SmallForestBytes();
  ASSERT_GT(bytes.size(), 100u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(Classifier::DeserializeTagged(prefix), std::exception)
        << "truncation to " << len << " bytes decoded successfully";
  }
  EXPECT_TRUE(DecodeAndExercise(bytes));  // the untruncated buffer is fine
}

TEST(BytesFuzzTest, GbtTruncationAtEveryBoundaryThrows) {
  std::vector<uint8_t> bytes = SmallGbtBytes();
  ASSERT_GT(bytes.size(), 100u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(Classifier::DeserializeTagged(prefix), std::exception)
        << "truncation to " << len << " bytes decoded successfully";
  }
  EXPECT_TRUE(DecodeAndExercise(bytes));
}

TEST(BytesFuzzTest, ForestRandomByteFlipsNeverCrash) {
  std::vector<uint8_t> clean = SmallForestBytes();
  Rng rng(99);
  int decoded = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> bytes = clean;
    int flips = 1 + static_cast<int>(rng.UniformInt(0, 7));
    for (int i = 0; i < flips; ++i) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(0, 254));
    }
    if (DecodeAndExercise(bytes)) ++decoded;
  }
  // Most flips land in float payloads (thresholds, probabilities) and decode
  // fine; the point is that *no* flip pattern crashes. Sanity-check both
  // outcomes occur so the test is actually exercising the reject paths.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 300);
}

TEST(BytesFuzzTest, GbtRandomByteFlipsNeverCrash) {
  std::vector<uint8_t> clean = SmallGbtBytes();
  Rng rng(101);
  int decoded = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> bytes = clean;
    int flips = 1 + static_cast<int>(rng.UniformInt(0, 7));
    for (int i = 0; i < flips; ++i) {
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(0, 254));
    }
    if (DecodeAndExercise(bytes)) ++decoded;
  }
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 300);
}

TEST(BytesFuzzTest, OversizedTreeCountRejectedWithoutAllocating) {
  ByteWriter w;
  w.String("random_forest");
  w.I32(3);            // num_classes
  w.I32(3);            // num_features
  w.U32(0xFFFFFFFFu);  // tree count far beyond what 0 remaining bytes can back
  EXPECT_THROW(Classifier::DeserializeTagged(w.TakeBytes()), std::exception);
}

TEST(BytesFuzzTest, OversizedNodeCountRejectedWithoutAllocating) {
  ByteWriter w;
  w.I32(2);            // num_classes
  w.U32(0x40000000u);  // ~1B nodes -> 24 GiB; must throw before resize()
  std::vector<uint8_t> bytes = w.TakeBytes();
  ByteReader r(bytes);
  EXPECT_THROW(DecisionTree::Deserialize(r), std::exception);
}

TEST(BytesFuzzTest, OversizedPodVectorRejected) {
  ByteWriter w;
  w.String("gbt");
  w.I32(2);            // num_classes
  w.I32(3);            // num_features
  w.F64(0.1);          // learning rate
  w.U32(0xFFFFFFF0u);  // base_score element count with no bytes behind it
  EXPECT_THROW(Classifier::DeserializeTagged(w.TakeBytes()), std::exception);
}

TEST(BytesFuzzTest, UnknownClassifierTagRejected) {
  ByteWriter w;
  w.String("linear_regression");
  EXPECT_THROW(Classifier::DeserializeTagged(w.TakeBytes()), std::exception);
}

TEST(BytesFuzzTest, TreeWithBackEdgeRejected) {
  // Handcraft a 3-node tree whose root points back at itself: without the
  // child-follows-parent check, prediction would loop forever.
  ByteWriter w;
  w.I32(2);  // num_classes
  w.U32(3);  // node count
  // node 0: internal, left points back to 0
  w.I32(0); w.F64(0.5); w.I32(0); w.I32(2); w.I32(-1);
  // nodes 1, 2: leaves
  w.I32(-1); w.F64(0.0); w.I32(-1); w.I32(-1); w.I32(0);
  w.I32(-1); w.F64(0.0); w.I32(-1); w.I32(-1); w.I32(1);
  w.PodVector(std::vector<float>{1.0f, 0.0f, 0.0f, 1.0f});  // 2 leaf rows
  w.PodVector(std::vector<double>{});
  std::vector<uint8_t> bytes = w.TakeBytes();
  ByteReader r(bytes);
  EXPECT_THROW(DecisionTree::Deserialize(r), std::exception);
}

TEST(BytesFuzzTest, TreeLeafPayloadOutOfRangeRejected) {
  ByteWriter w;
  w.I32(2);  // num_classes
  w.U32(1);  // single leaf
  w.I32(-1); w.F64(0.0); w.I32(-1); w.I32(-1); w.I32(7);  // payload row 7 of 1
  w.PodVector(std::vector<float>{0.5f, 0.5f});
  w.PodVector(std::vector<double>{});
  std::vector<uint8_t> bytes = w.TakeBytes();
  ByteReader r(bytes);
  EXPECT_THROW(DecisionTree::Deserialize(r), std::exception);
}

TEST(BytesFuzzTest, TreeSplitFeatureBeyondEnsembleWidthRejected) {
  // A structurally valid tree whose split feature exceeds the ensemble's
  // feature count must be rejected when the ensemble contract is supplied.
  ByteWriter w;
  w.I32(2);  // num_classes
  w.U32(3);
  w.I32(250); w.F64(0.5); w.I32(1); w.I32(2); w.I32(-1);  // split on feature 250
  w.I32(-1); w.F64(0.0); w.I32(-1); w.I32(-1); w.I32(0);
  w.I32(-1); w.F64(0.0); w.I32(-1); w.I32(-1); w.I32(1);
  w.PodVector(std::vector<float>{1.0f, 0.0f, 0.0f, 1.0f});
  w.PodVector(std::vector<double>{});
  std::vector<uint8_t> bytes = w.TakeBytes();
  {
    ByteReader r(bytes);
    EXPECT_THROW(DecisionTree::Deserialize(r, 2, 3), std::exception);
  }
  {
    ByteReader r(bytes);  // without the contract the tree is self-consistent
    EXPECT_NO_THROW(DecisionTree::Deserialize(r));
  }
}

TEST(BytesFuzzTest, ModelSpecCorruptionRejected) {
  rc::core::ModelSpec spec;
  spec.name = "lifetime";
  spec.metric = rc::Metric::kLifetime;
  spec.model_family = "gbt";
  spec.num_features = 17;
  spec.version = 3;
  std::vector<uint8_t> clean = spec.Serialize();

  // Round-trips cleanly.
  EXPECT_NO_THROW(rc::core::ModelSpec::Deserialize(clean));

  // Truncation at every boundary throws.
  for (size_t len = 0; len < clean.size(); ++len) {
    std::vector<uint8_t> prefix(clean.begin(), clean.begin() + static_cast<long>(len));
    EXPECT_THROW(rc::core::ModelSpec::Deserialize(prefix), std::exception);
  }

  // Out-of-range metric enum: a Featurizer built from it would index out of
  // bounds, so Deserialize must reject it.
  {
    rc::ml::ByteWriter w;
    w.String("lifetime");
    w.I32(999);  // metric
    w.I32(0);    // encoding
    w.String("gbt");
    w.U32(17);
    w.U64(3);
    EXPECT_THROW(rc::core::ModelSpec::Deserialize(w.TakeBytes()), std::exception);
  }
  {
    rc::ml::ByteWriter w;
    w.String("lifetime");
    w.I32(0);
    w.I32(-5);  // encoding below range
    w.String("gbt");
    w.U32(17);
    w.U64(3);
    EXPECT_THROW(rc::core::ModelSpec::Deserialize(w.TakeBytes()), std::exception);
  }
}

TEST(BytesFuzzTest, SubscriptionFeaturesTruncationThrowsFlipsAreSafe) {
  rc::core::SubscriptionFeatures f;
  f.subscription_id = 42;
  f.vm_count = 10;
  f.deployment_count = 2;
  f.mean_avg_cpu = 0.3;
  std::vector<uint8_t> clean = f.Serialize();

  for (size_t len = 0; len < clean.size(); ++len) {
    std::vector<uint8_t> prefix(clean.begin(), clean.begin() + static_cast<long>(len));
    EXPECT_THROW(rc::core::SubscriptionFeatures::Deserialize(prefix), std::exception);
  }

  // The record is fixed-width, so bit flips change values but can never make
  // decoding unsafe.
  Rng rng(55);
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<uint8_t> bytes = clean;
    size_t pos =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
    bytes[pos] ^= static_cast<uint8_t>(1 + rng.UniformInt(0, 254));
    EXPECT_NO_THROW(rc::core::SubscriptionFeatures::Deserialize(bytes));
  }
}

}  // namespace
}  // namespace rc::ml
