#include "src/ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/parallel.h"
#include "src/ml/exec_engine.h"

namespace rc::ml {

RandomForest RandomForest::Fit(const Dataset& data, const RandomForestConfig& config) {
  if (data.num_rows() == 0) throw std::invalid_argument("RandomForest::Fit: empty data");
  RandomForest forest;
  forest.num_classes_ = data.NumClasses();
  forest.num_features_ = static_cast<int>(data.num_features());

  FeatureBinner binner = FeatureBinner::Fit(data);
  std::vector<uint8_t> bins = binner.Transform(data);
  BinnedView view{bins.data(), data.num_rows(), data.num_features(), &binner};

  const int max_features =
      std::max(1, static_cast<int>(std::sqrt(static_cast<double>(data.num_features()))));

  forest.trees_.resize(static_cast<size_t>(config.num_trees));
  // Pre-derive one RNG per tree so results are independent of thread count.
  std::vector<uint64_t> seeds(forest.trees_.size());
  {
    Rng seeder(config.seed);
    for (auto& s : seeds) s = seeder.NextU64();
  }

  // Each tree's bootstrap sample is as large as the training set.
  auto train_range = [&](size_t begin, size_t end) {
    std::vector<uint32_t> rows(data.num_rows());
    for (size_t t = begin; t < end; ++t) {
      Rng rng(seeds[t]);
      for (auto& row : rows) {
        row = static_cast<uint32_t>(
            rng.UniformInt(0, static_cast<int64_t>(data.num_rows()) - 1));
      }
      forest.trees_[t] = DecisionTree::FitClassifier(view, data.labels(), rows,
                                                     forest.num_classes_, config.tree,
                                                     max_features, rng);
    }
  };

  ParallelFor(forest.trees_.size(), std::min<size_t>(HardwareThreads(), 8), train_range);
  forest.CompileEngine();
  return forest;
}

void RandomForest::CompileEngine() {
  engine_ = std::make_shared<const ExecEngine>(ExecEngine::Compile(*this));
}

void RandomForest::PredictBatch(const double* X, size_t n, size_t stride,
                                double* proba_out) const {
  engine_->PredictBatch(X, n, stride, proba_out);
}

std::vector<double> RandomForest::PredictProbaLegacy(std::span<const double> x) const {
  std::vector<double> acc(static_cast<size_t>(num_classes_), 0.0);
  std::vector<double> one(static_cast<size_t>(num_classes_));
  for (const auto& tree : trees_) {
    tree.PredictProba(x, one);
    for (size_t c = 0; c < acc.size(); ++c) acc[c] += one[c];
  }
  double inv = trees_.empty() ? 0.0 : 1.0 / static_cast<double>(trees_.size());
  for (double& v : acc) v *= inv;
  return acc;
}

std::vector<double> RandomForest::FeatureImportance() const {
  return NormalizedGainImportance(trees_, static_cast<size_t>(num_features_));
}

void RandomForest::Serialize(ByteWriter& w) const {
  w.I32(num_classes_);
  w.I32(num_features_);
  w.U32(static_cast<uint32_t>(trees_.size()));
  for (const auto& tree : trees_) tree.Serialize(w);
}

RandomForest RandomForest::Deserialize(ByteReader& r) {
  RandomForest forest;
  forest.num_classes_ = r.I32();
  forest.num_features_ = r.I32();
  if (forest.num_classes_ < 0 || forest.num_classes_ > (1 << 20) || forest.num_features_ < 0 ||
      forest.num_features_ > (1 << 20)) {
    throw std::runtime_error("RandomForest: implausible header");
  }
  uint32_t n = r.U32();
  // A serialized tree is at least ~24 bytes; reject counts the buffer cannot
  // back before reserve() tries to allocate for them.
  if (static_cast<size_t>(n) > r.remaining() / 24) {
    throw std::runtime_error("RandomForest: tree count exceeds buffer");
  }
  forest.trees_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    forest.trees_.push_back(
        DecisionTree::Deserialize(r, forest.num_classes_, forest.num_features_));
  }
  // Compile on the load path (the client's store_read -> decode span), so
  // the first prediction is as cheap as every later one.
  forest.CompileEngine();
  return forest;
}

}  // namespace rc::ml
