// Verifies the Table-4 arithmetic exactly, using a scripted classifier.
#include "src/core/evaluation.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace rc::core {
namespace {

// Returns a fixed (label, score) per row, keyed by the first feature value.
class ScriptedClassifier final : public rc::ml::Classifier {
 public:
  struct Entry {
    int label;
    double score;
  };
  explicit ScriptedClassifier(std::vector<Entry> script, int num_classes)
      : script_(std::move(script)), num_classes_(num_classes) {}

  int num_classes() const override { return num_classes_; }
  int num_features() const override { return 1; }
  void PredictBatch(const double* X, size_t n, size_t stride,
                    double* proba_out) const override {
    const size_t k = static_cast<size_t>(num_classes_);
    for (size_t i = 0; i < n; ++i) {
      const Entry& e = script_.at(static_cast<size_t>(X[i * stride]));
      // Top class carries `score`; the rest is spread uniformly.
      double* probs = proba_out + i * k;
      std::fill(probs, probs + k, (1.0 - e.score) / (num_classes_ - 1));
      probs[static_cast<size_t>(e.label)] = e.score;
    }
  }
  const char* type_name() const override { return "scripted"; }
  void Serialize(rc::ml::ByteWriter&) const override {}

 private:
  std::vector<Entry> script_;
  int num_classes_;
};

// Drives EvaluateModel through the real featurizer: each example's `cores`
// input (feature 0 of the compact encoding) indexes the script.
TEST(EvaluationTest, Table4ArithmeticExact) {
  // 4 examples for the class metric (2 buckets):
  //   idx cores true predicted score
  //   0   0     0    0         0.9   served, correct
  //   1   1     0    1         0.8   served, wrong
  //   2   2     1    1         0.55  not served (theta 0.6), correct
  //   3   3     1    0         0.7   served, wrong
  ScriptedClassifier model({{0, 0.9}, {1, 0.8}, {1, 0.55}, {0, 0.7}}, 2);
  Featurizer featurizer(Metric::kClass, FeatureEncoding::kCompact);
  // EncodeTo writes `cores` into feature 0 (see Featurizer::BuildNames).
  ASSERT_EQ(featurizer.feature_names()[0], "cores");

  std::vector<LabeledExample> examples(4);
  int truths[4] = {0, 0, 1, 1};
  for (int i = 0; i < 4; ++i) {
    examples[static_cast<size_t>(i)].inputs.cores = i;
    examples[static_cast<size_t>(i)].label = truths[i];
  }
  MetricQuality q = EvaluateModel(model, featurizer, examples, 0.6);

  EXPECT_EQ(q.examples, 4);
  EXPECT_DOUBLE_EQ(q.accuracy, 0.5);  // rows 0 and 2 correct
  ASSERT_EQ(q.buckets.size(), 2u);
  // Bucket 0: prevalence 2/4; predicted-0 set = rows {0, 3} -> precision 1/2;
  // actual-0 set = rows {0, 1} -> recall 1/2.
  EXPECT_DOUBLE_EQ(q.buckets[0].prevalence, 0.5);
  EXPECT_DOUBLE_EQ(q.buckets[0].precision, 0.5);
  EXPECT_DOUBLE_EQ(q.buckets[0].recall, 0.5);
  // Bucket 1: predicted-1 = rows {1, 2} -> precision 1/2; actual-1 = {2, 3}
  // -> recall 1/2.
  EXPECT_DOUBLE_EQ(q.buckets[1].precision, 0.5);
  EXPECT_DOUBLE_EQ(q.buckets[1].recall, 0.5);
  // Thresholded at 0.6: rows {0, 1, 3} served, 1 correct -> P=1/3, R=3/4.
  EXPECT_NEAR(q.p_theta, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(q.r_theta, 0.75);
}

TEST(EvaluationTest, PerfectModelPerfectQuality) {
  ScriptedClassifier model({{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}}, 4);
  Featurizer featurizer(Metric::kLifetime, FeatureEncoding::kCompact);
  ASSERT_EQ(featurizer.feature_names()[0], "cores");
  std::vector<LabeledExample> examples(4);
  for (int i = 0; i < 4; ++i) {
    examples[static_cast<size_t>(i)].inputs.cores = i;
    examples[static_cast<size_t>(i)].label = i;
  }
  MetricQuality q = EvaluateModel(model, featurizer, examples, 0.6);
  EXPECT_DOUBLE_EQ(q.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(q.p_theta, 1.0);
  EXPECT_DOUBLE_EQ(q.r_theta, 1.0);
  for (const auto& bucket : q.buckets) {
    EXPECT_DOUBLE_EQ(bucket.precision, 1.0);
    EXPECT_DOUBLE_EQ(bucket.recall, 1.0);
    EXPECT_DOUBLE_EQ(bucket.prevalence, 0.25);
  }
}

}  // namespace
}  // namespace rc::core
