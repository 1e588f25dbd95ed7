// Extreme Gradient Boosting Trees: Newton boosting with softmax (K > 2) or
// logistic (K == 2) loss, shrinkage, row subsampling, and L2-regularized leaf
// values. The paper uses boosted trees for deployment size, lifetime, and
// workload class (Table 1). As in XGBoost, a multiclass round takes all K
// gradients from the scores at the start of the round, so its K class trees
// are independent and are fit side by side. The shrinkage and the per-round
// row subsample are fixed (kLearningRate, kSubsample); the seed draws only
// the subsample, since a regression tree searches every feature.
#ifndef RC_SRC_ML_GBT_H_
#define RC_SRC_ML_GBT_H_

#include <memory>
#include <span>
#include <vector>

#include "src/ml/classifier.h"
#include "src/ml/dataset.h"
#include "src/ml/tree.h"

namespace rc::ml {

struct GbtConfig {
  int num_rounds = 60;
  TreeConfig tree = {.max_depth = 6, .min_samples_leaf = 8};
  // Per-class loss weights (empty = uniform). Upweighting a rare class
  // boosts its recall at the cost of precision — exactly the tradeoff the
  // paper makes for the interactive workload class ("mistakes in this
  // direction are acceptable").
  std::vector<double> class_weights;
  uint64_t seed = 1;
};

class GradientBoostedTrees final : public Classifier {
 public:
  // Shrinkage applied to every tree's leaf values.
  static constexpr double kLearningRate = 0.2;
  // Each round trains on every row with this probability (without
  // replacement).
  static constexpr double kSubsample = 0.8;

  static GradientBoostedTrees Fit(const Dataset& data, const GbtConfig& config);

  int num_classes() const override { return num_classes_; }
  int num_features() const override { return num_features_; }
  // Prediction delegates to the compiled ExecEngine (built at
  // the end of Fit/Deserialize — the load path compiles, the prediction
  // path only walks).
  void PredictBatch(const double* X, size_t n, size_t stride,
                    double* proba_out) const override;
  const ExecEngine* engine() const override { return engine_.get(); }
  // The original per-tree AoS traversal, kept for the bit-exactness parity
  // suite (tests/ml/exec_engine_test.cc) — not a hot path.
  std::vector<double> PredictProbaLegacy(std::span<const double> x) const;

  std::vector<double> FeatureImportance() const override;

  size_t tree_count() const { return trees_.size(); }
  const DecisionTree& tree(size_t i) const { return trees_[i]; }
  const std::vector<double>& base_score() const { return base_score_; }
  double learning_rate() const { return learning_rate_; }

  const char* type_name() const override { return "gbt"; }
  void Serialize(ByteWriter& w) const override;
  static GradientBoostedTrees Deserialize(ByteReader& r);

 private:
  // Only Fit and Deserialize create models, and both end in CompileEngine(),
  // so engine_ is never null.
  GradientBoostedTrees() = default;
  void CompileEngine();

  // K == 2: one tree per round (logistic); K > 2: K trees per round
  // (softmax), stored round-major.
  std::vector<DecisionTree> trees_;
  std::vector<double> base_score_;  // per-class prior log-odds / logits
  int num_classes_ = 0;
  int num_features_ = 0;
  double learning_rate_ = kLearningRate;
  // Shared (not unique) so the model stays copyable; the engine is immutable
  // and safe to share across copies and threads.
  std::shared_ptr<const ExecEngine> engine_;
};

}  // namespace rc::ml

#endif  // RC_SRC_ML_GBT_H_
