#include "src/ml/gbt.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/parallel.h"
#include "src/ml/exec_engine.h"
#include "src/ml/link_functions.h"

namespace rc::ml {

GradientBoostedTrees GradientBoostedTrees::Fit(const Dataset& data, const GbtConfig& config) {
  if (data.num_rows() == 0) throw std::invalid_argument("GBT::Fit: empty data");
  GradientBoostedTrees model;
  model.num_classes_ = data.NumClasses();
  model.num_features_ = static_cast<int>(data.num_features());
  model.learning_rate_ = kLearningRate;
  const int k = model.num_classes_;
  const size_t n = data.num_rows();
  if (k < 2) throw std::invalid_argument("GBT::Fit: need at least 2 classes");

  FeatureBinner binner = FeatureBinner::Fit(data);
  std::vector<uint8_t> bins = binner.Transform(data);
  BinnedView view{bins.data(), n, data.num_features(), &binner};

  // Base score from class priors (clamped away from 0 to keep logits finite).
  std::vector<double> prior(static_cast<size_t>(k), 0.0);
  for (int label : data.labels()) prior[static_cast<size_t>(label)] += 1.0;
  for (double& p : prior) p = std::max(p / static_cast<double>(n), 1e-4);
  const bool binary = (k == 2);
  if (binary) {
    model.base_score_ = {std::log(prior[1] / prior[0])};
  } else {
    model.base_score_.resize(static_cast<size_t>(k));
    for (int c = 0; c < k; ++c) model.base_score_[static_cast<size_t>(c)] = std::log(prior[static_cast<size_t>(c)]);
  }

  // Running raw scores per row (binary: single logit; multiclass: k logits).
  const size_t score_width = binary ? 1 : static_cast<size_t>(k);
  std::vector<double> scores(n * score_width);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < score_width; ++c) scores[i * score_width + c] = model.base_score_[c];
  }

  if (!config.class_weights.empty() &&
      config.class_weights.size() != static_cast<size_t>(k)) {
    throw std::invalid_argument("GBT::Fit: class_weights size mismatch");
  }
  auto weight_of = [&](int label) {
    return config.class_weights.empty() ? 1.0
                                        : config.class_weights[static_cast<size_t>(label)];
  };

  // A round fits one tree (binary) or one per class (multiclass). Only the
  // round's row subsample draws from `rng`, on the calling thread, so the
  // bits never depend on the thread count.
  Rng rng(config.seed);
  model.trees_.reserve(static_cast<size_t>(config.num_rounds) * score_width);
  // Class-major buffers: tree c of a round reads its gradients and hessians
  // from [c * n, (c + 1) * n) and writes its per-row score deltas there.
  std::vector<double> grad(score_width * n), hess(score_width * n), delta(score_width * n);
  std::vector<uint32_t> rows;
  rows.reserve(n);
  std::vector<double> probs(static_cast<size_t>(k));
  std::vector<DecisionTree> round_trees(score_width);

  for (int round = 0; round < config.num_rounds; ++round) {
    // Row subsample for this round (shared across the per-class trees).
    rows.clear();
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(kSubsample)) rows.push_back(static_cast<uint32_t>(i));
    }
    if (rows.empty()) {
      rows.push_back(static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
    }

    // Every gradient comes from the round-start scores. Multiclass takes one
    // softmax per row for all k classes, as XGBoost's softmax objective does,
    // so the round's class trees are independent of each other.
    if (binary) {
      for (size_t i = 0; i < n; ++i) {
        double p = Sigmoid(scores[i]);
        double y = data.Label(i) == 1 ? 1.0 : 0.0;
        double w = weight_of(data.Label(i));
        grad[i] = w * (p - y);
        hess[i] = std::max(w * p * (1.0 - p), 1e-9);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        Softmax({&scores[i * score_width], score_width}, probs);
        const int label = data.Label(i);
        const double w = weight_of(label);
        for (int c = 0; c < k; ++c) {
          double p = probs[static_cast<size_t>(c)];
          double y = label == c ? 1.0 : 0.0;
          grad[static_cast<size_t>(c) * n + i] = w * (p - y);
          hess[static_cast<size_t>(c) * n + i] = std::max(w * p * (1.0 - p), 1e-9);
        }
      }
    }

    // The class trees side by side, each into its own delta buffer: the
    // round's sampled rows (`rows`, ascending) take the leaf value training
    // partitioned them into, and only the others walk the tree. Both routes
    // give the same value (FitRegressor), so the deltas are the bits a walk
    // of every row would give.
    ParallelFor(score_width, HardwareThreads(), [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) {
        std::span<double> d(&delta[c * n], n);
        round_trees[c] = DecisionTree::FitRegressor(view, {&grad[c * n], n}, {&hess[c * n], n},
                                                    rows, config.tree, d);
        size_t next = 0;
        for (size_t i = 0; i < n; ++i) {
          double value;
          if (next < rows.size() && rows[next] == i) {
            value = d[i];
            ++next;
          } else {
            value = round_trees[c].PredictValue(data.Row(i));
          }
          d[i] = kLearningRate * value;
        }
      }
    });
    // Only the calling thread writes the scores, so no two workers write to
    // one cache line.
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < score_width; ++c) scores[i * score_width + c] += delta[c * n + i];
    }
    for (DecisionTree& tree : round_trees) model.trees_.push_back(std::move(tree));
  }
  model.CompileEngine();
  return model;
}

void GradientBoostedTrees::CompileEngine() {
  engine_ = std::make_shared<const ExecEngine>(ExecEngine::Compile(*this));
}

void GradientBoostedTrees::PredictBatch(const double* X, size_t n, size_t stride,
                                        double* proba_out) const {
  engine_->PredictBatch(X, n, stride, proba_out);
}

std::vector<double> GradientBoostedTrees::PredictProbaLegacy(
    std::span<const double> x) const {
  const bool binary = (num_classes_ == 2);
  if (binary) {
    double z = base_score_[0];
    for (const auto& tree : trees_) z += learning_rate_ * tree.PredictValue(x);
    double p1 = Sigmoid(z);
    return {1.0 - p1, p1};
  }
  std::vector<double> logits(base_score_);
  const size_t k = static_cast<size_t>(num_classes_);
  for (size_t t = 0; t < trees_.size(); ++t) {
    logits[t % k] += learning_rate_ * trees_[t].PredictValue(x);
  }
  std::vector<double> probs(k);
  Softmax(logits, probs);
  return probs;
}

std::vector<double> GradientBoostedTrees::FeatureImportance() const {
  return NormalizedGainImportance(trees_, static_cast<size_t>(num_features_));
}

void GradientBoostedTrees::Serialize(ByteWriter& w) const {
  w.I32(num_classes_);
  w.I32(num_features_);
  w.F64(learning_rate_);
  w.PodVector(base_score_);
  w.U32(static_cast<uint32_t>(trees_.size()));
  for (const auto& tree : trees_) tree.Serialize(w);
}

GradientBoostedTrees GradientBoostedTrees::Deserialize(ByteReader& r) {
  GradientBoostedTrees model;
  model.num_classes_ = r.I32();
  model.num_features_ = r.I32();
  if (model.num_classes_ < 0 || model.num_classes_ > (1 << 20) || model.num_features_ < 0 ||
      model.num_features_ > (1 << 20)) {
    throw std::runtime_error("GradientBoostedTrees: implausible header");
  }
  if (model.num_classes_ < 2) {
    throw std::runtime_error("GradientBoostedTrees: need at least 2 classes");
  }
  model.learning_rate_ = r.F64();
  model.base_score_ = r.PodVector<double>();
  // The engine and PredictProbaLegacy index base_score_ directly; its size
  // is fixed by the class count (1 logit for binary, k for multiclass).
  size_t want_scores = model.num_classes_ == 2 ? 1 : static_cast<size_t>(model.num_classes_);
  if (model.base_score_.size() != want_scores) {
    throw std::runtime_error("GradientBoostedTrees: base score size mismatch");
  }
  uint32_t n = r.U32();
  // A serialized tree is at least ~24 bytes; reject counts the buffer cannot
  // back before reserve() tries to allocate for them.
  if (static_cast<size_t>(n) > r.remaining() / 24) {
    throw std::runtime_error("GradientBoostedTrees: tree count exceeds buffer");
  }
  model.trees_.reserve(n);
  // Boosting trees are regression trees (num_classes == 0): PredictValue
  // indexes leaf_values_, which only the regression payload check covers.
  for (uint32_t i = 0; i < n; ++i) {
    model.trees_.push_back(DecisionTree::Deserialize(r, 0, model.num_features_));
  }
  // Compile on the load path (the client's store_read -> decode span), so
  // the first prediction is as cheap as every later one.
  model.CompileEngine();
  return model;
}

}  // namespace rc::ml
