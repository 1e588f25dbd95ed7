// Random Forest classifier: bagged Gini CART trees with per-node feature
// subsampling. The paper uses Random Forests for the two CPU-utilization
// metrics (Table 1). Each tree trains on a bootstrap sample as large as the
// training set and searches sqrt(F) features per node. The trees are fit
// side by side on up to 8 threads, each from a seed drawn up front, so the
// model's bits do not depend on the thread count.
#ifndef RC_SRC_ML_RANDOM_FOREST_H_
#define RC_SRC_ML_RANDOM_FOREST_H_

#include <memory>
#include <span>
#include <vector>

#include "src/ml/classifier.h"
#include "src/ml/dataset.h"
#include "src/ml/tree.h"

namespace rc::ml {

struct RandomForestConfig {
  int num_trees = 48;
  TreeConfig tree = {.max_depth = 14, .min_samples_leaf = 4};
  uint64_t seed = 1;
};

class RandomForest final : public Classifier {
 public:
  static RandomForest Fit(const Dataset& data, const RandomForestConfig& config);

  int num_classes() const override { return num_classes_; }
  int num_features() const override { return num_features_; }
  // Prediction delegates to the compiled ExecEngine (built at
  // the end of Fit/Deserialize, so the load path pays for compilation and
  // the prediction path never does).
  void PredictBatch(const double* X, size_t n, size_t stride,
                    double* proba_out) const override;
  const ExecEngine* engine() const override { return engine_.get(); }
  // The original per-tree AoS traversal, kept for the bit-exactness parity
  // suite (tests/ml/exec_engine_test.cc) — not a hot path.
  std::vector<double> PredictProbaLegacy(std::span<const double> x) const;

  std::vector<double> FeatureImportance() const override;

  size_t tree_count() const { return trees_.size(); }
  const DecisionTree& tree(size_t i) const { return trees_[i]; }

  const char* type_name() const override { return "random_forest"; }
  void Serialize(ByteWriter& w) const override;
  static RandomForest Deserialize(ByteReader& r);

 private:
  // Only Fit and Deserialize create models, and both end in CompileEngine(),
  // so engine_ is never null.
  RandomForest() = default;
  void CompileEngine();

  std::vector<DecisionTree> trees_;
  int num_classes_ = 0;
  int num_features_ = 0;
  // Shared (not unique) so the forest stays copyable; the engine itself is
  // immutable and safe to share across copies and threads.
  std::shared_ptr<const ExecEngine> engine_;
};

}  // namespace rc::ml

#endif  // RC_SRC_ML_RANDOM_FOREST_H_
