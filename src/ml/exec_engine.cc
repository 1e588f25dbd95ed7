#include "src/ml/exec_engine.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "src/ml/exec_engine_simd.h"
#include "src/ml/gbt.h"
#include "src/ml/link_functions.h"
#include "src/ml/random_forest.h"

namespace rc::ml {

const char* ExecEngine::ModeName(Mode mode) {
  switch (mode) {
    case Mode::kAuto: return "auto";
    case Mode::kScalar: return "scalar";
    case Mode::kAvx2: return "avx2";
  }
  return "unknown";
}

bool ExecEngine::Avx2Available() {
  static const bool available = [] {
    if (!internal::CompiledWithAvx2()) return false;
#if defined(__x86_64__) || defined(__i386__)
    if (!__builtin_cpu_supports("avx2")) return false;
#else
    return false;
#endif
    // Operational kill-switch (and the CI lever that exercises the scalar
    // fallback on AVX2 hosts — tools/check_all.sh).
    const char* kill = std::getenv("RC_DISABLE_AVX2");
    return kill == nullptr || kill[0] == '\0' ||
           std::strcmp(kill, "0") == 0;
  }();
  return available;
}

ExecEngine::Mode ExecEngine::Resolve(Mode mode) const {
  if (mode == Mode::kAuto) return Avx2Available() ? Mode::kAvx2 : Mode::kScalar;
  if (mode == Mode::kAvx2 && !Avx2Available()) return Mode::kScalar;
  return mode;
}

size_t ExecEngine::bytes() const {
  return feature_idx_.size() * sizeof(int32_t) +
         threshold_.size() * sizeof(double) +
         child_pair_.size() * sizeof(int64_t) +
         leaf_probs_.size() * sizeof(float) +
         leaf_values_.size() * sizeof(double);
}

void ExecEngine::AddTree(const DecisionTree& tree) {
  const std::span<const DecisionTree::Node> nodes = tree.nodes();
  if (nodes.empty()) throw std::invalid_argument("ExecEngine: empty tree");
  const size_t k = static_cast<size_t>(num_classes_);

  // Pass 1: assign every node its link. Internal nodes take pool slots in
  // node order; leaves copy their payload into the engine table and encode
  // the payload index as its bitwise complement.
  std::vector<int32_t> remap(nodes.size());
  int32_t next_internal = static_cast<int32_t>(feature_idx_.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const DecisionTree::Node& node = nodes[i];
    if (node.feature >= 0) {
      remap[i] = next_internal++;
      continue;
    }
    int32_t payload;
    if (family_ == Family::kAveragedForest) {
      payload = static_cast<int32_t>(leaf_probs_.size() / k);
      const std::span<const float> probs = tree.leaf_probs();
      size_t src = static_cast<size_t>(node.payload) * k;
      leaf_probs_.insert(leaf_probs_.end(), probs.begin() + src,
                         probs.begin() + src + k);
    } else {
      payload = static_cast<int32_t>(leaf_values_.size());
      leaf_values_.push_back(tree.leaf_values()[static_cast<size_t>(node.payload)]);
    }
    remap[i] = ~payload;
  }

  // Pass 2: emit internal nodes into the SoA pool, children remapped and
  // packed as {left: low 32, right: high 32}.
  for (const DecisionTree::Node& node : nodes) {
    if (node.feature < 0) continue;
    feature_idx_.push_back(node.feature);
    threshold_.push_back(node.threshold);
    const uint32_t left =
        static_cast<uint32_t>(remap[static_cast<size_t>(node.left)]);
    const uint32_t right =
        static_cast<uint32_t>(remap[static_cast<size_t>(node.right)]);
    child_pair_.push_back(static_cast<int64_t>(
        static_cast<uint64_t>(left) | (static_cast<uint64_t>(right) << 32)));
  }
  root_link_.push_back(remap[0]);
  // depth() counts nodes on the longest root-to-leaf path; a lane descending
  // from the root reaches its leaf in at most depth() - 1 comparisons.
  tree_depth_.push_back(static_cast<int32_t>(tree.depth()) - 1);
}

ExecEngine ExecEngine::Compile(const RandomForest& forest) {
  ExecEngine engine;
  engine.family_ = Family::kAveragedForest;
  engine.num_classes_ = forest.num_classes();
  engine.num_features_ = forest.num_features();
  if (engine.num_classes_ <= 0) {
    throw std::invalid_argument("ExecEngine: forest without classes");
  }
  for (size_t t = 0; t < forest.tree_count(); ++t) {
    const DecisionTree& tree = forest.tree(t);
    if (tree.num_classes() != engine.num_classes_) {
      throw std::invalid_argument("ExecEngine: tree class count disagrees with forest");
    }
    engine.AddTree(tree);
  }
  return engine;
}

ExecEngine ExecEngine::Compile(const GradientBoostedTrees& gbt) {
  ExecEngine engine;
  engine.family_ = Family::kBoosted;
  engine.num_classes_ = gbt.num_classes();
  engine.num_features_ = gbt.num_features();
  engine.learning_rate_ = gbt.learning_rate();
  engine.base_score_.assign(gbt.base_score().begin(), gbt.base_score().end());
  if (engine.num_classes_ < 2) {
    throw std::invalid_argument("ExecEngine: boosted model needs >= 2 classes");
  }
  for (size_t t = 0; t < gbt.tree_count(); ++t) {
    const DecisionTree& tree = gbt.tree(t);
    if (tree.is_classifier()) {
      throw std::invalid_argument("ExecEngine: boosted tree is not a regression tree");
    }
    engine.AddTree(tree);
  }
  return engine;
}

std::shared_ptr<const ExecEngine> ExecEngine::TryCompile(const Classifier& model) {
  if (const auto* forest = dynamic_cast<const RandomForest*>(&model)) {
    return std::make_shared<const ExecEngine>(Compile(*forest));
  }
  if (const auto* gbt = dynamic_cast<const GradientBoostedTrees*>(&model)) {
    return std::make_shared<const ExecEngine>(Compile(*gbt));
  }
  return nullptr;
}

void ExecEngine::WalkLane(int32_t root, int32_t rounds, const double* X, size_t stride,
                          size_t m, int32_t* payload) const {
  if (root < 0) {
    for (size_t j = 0; j < m; ++j) payload[j] = ~root;
    return;
  }
  int32_t link[kWalkLanes];
  for (size_t j = 0; j < m; ++j) link[j] = root;
  // Fixed round count (the tree's depth), each round stepping every lane
  // once through the shared branchless step. The per-lane loads are
  // independent across lanes, so a cache miss in one descent overlaps with
  // the others instead of stalling the whole batch (the single-example Walk
  // is one serial dependent-load chain), and the loop needs no "any lane
  // still descending?" check between rounds.
  for (int32_t r = 0; r < rounds; ++r) {
    for (size_t j = 0; j < m; ++j) {
      link[j] = StepBranchless(link[j], X + j * stride);
    }
  }
  for (size_t j = 0; j < m; ++j) payload[j] = ~link[j];
}

void ExecEngine::WalkBlock(bool avx2, int32_t root, int32_t rounds, const double* X,
                           size_t stride, size_t m, int32_t* payload) const {
  if (avx2 && root >= 0) {
    if (m == kSimdBlock) {
      internal::WalkLanes32Avx2(
          {feature_idx_.data(), threshold_.data(), child_pair_.data()}, root,
          rounds, X, stride, payload);
      return;
    }
    if (m >= kWalkLanes) {
      internal::WalkLanes16Avx2(
          {feature_idx_.data(), threshold_.data(), child_pair_.data()}, root,
          rounds, X, stride, payload);
      WalkLane(root, rounds, X + kWalkLanes * stride, stride, m - kWalkLanes,
               payload + kWalkLanes);
      return;
    }
  }
  for (size_t j0 = 0; j0 < m; j0 += kWalkLanes) {
    WalkLane(root, rounds, X + j0 * stride, stride,
             std::min(kWalkLanes, m - j0), payload + j0);
  }
}

void ExecEngine::PredictBatch(const double* X, size_t n, size_t stride,
                              double* proba_out, Mode mode) const {
  assert(stride >= static_cast<size_t>(num_features_));  // the walk reads num_features_ per row
  const size_t k = static_cast<size_t>(num_classes_);
  if (n == 0) return;
  const bool avx2 = Resolve(mode) == Mode::kAvx2 && stride <= kMaxSimdStride;

  // All families walk tree-major (outer loop over trees, lanes of examples
  // in lockstep inside): a tree's slice of the pool stays hot across the
  // whole batch, and each example still accumulates its leaf values in
  // increasing tree order — bit-identical to the legacy traversal. The AVX2
  // kernels only change how full 32- and 16-row blocks find their leaves;
  // partial tails share the scalar branchless step, and the accumulation
  // below is identical either way, which is why kScalar and kAvx2 are
  // bit-exact.
  int32_t payload[kSimdBlock];

  if (family_ == Family::kAveragedForest) {
    std::fill(proba_out, proba_out + n * k, 0.0);
    for (size_t t = 0; t < root_link_.size(); ++t) {
      const int32_t root = root_link_[t];
      const int32_t rounds = tree_depth_[t];
      for (size_t i0 = 0; i0 < n; i0 += kSimdBlock) {
        const size_t m = std::min(kSimdBlock, n - i0);
        WalkBlock(avx2, root, rounds, X + i0 * stride, stride, m, payload);
        for (size_t j = 0; j < m; ++j) {
          const float* probs =
              leaf_probs_.data() + static_cast<size_t>(payload[j]) * k;
          double* acc = proba_out + (i0 + j) * k;
          for (size_t c = 0; c < k; ++c) acc[c] += probs[c];
        }
      }
    }
    // Same normalization as the legacy traversal (0 for an empty ensemble).
    const double inv =
        root_link_.empty() ? 0.0 : 1.0 / static_cast<double>(root_link_.size());
    for (size_t i = 0; i < n * k; ++i) proba_out[i] *= inv;
    return;
  }

  // Boosted: accumulate logits directly in proba_out (no scratch), exactly
  // mirroring the legacy per-example accumulation order over trees.
  const bool binary = (num_classes_ == 2);
  if (binary) {
    // Row layout during accumulation: slot 1 holds the single logit.
    for (size_t i = 0; i < n; ++i) proba_out[i * 2 + 1] = base_score_[0];
    for (size_t t = 0; t < root_link_.size(); ++t) {
      const int32_t root = root_link_[t];
      const int32_t rounds = tree_depth_[t];
      for (size_t i0 = 0; i0 < n; i0 += kSimdBlock) {
        const size_t m = std::min(kSimdBlock, n - i0);
        WalkBlock(avx2, root, rounds, X + i0 * stride, stride, m, payload);
        for (size_t j = 0; j < m; ++j) {
          proba_out[(i0 + j) * 2 + 1] +=
              learning_rate_ * leaf_values_[static_cast<size_t>(payload[j])];
        }
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      std::copy(base_score_.begin(), base_score_.end(), proba_out + i * k);
    }
    for (size_t t = 0; t < root_link_.size(); ++t) {
      const int32_t root = root_link_[t];
      const int32_t rounds = tree_depth_[t];
      const size_t cls = t % k;
      for (size_t i0 = 0; i0 < n; i0 += kSimdBlock) {
        const size_t m = std::min(kSimdBlock, n - i0);
        WalkBlock(avx2, root, rounds, X + i0 * stride, stride, m, payload);
        for (size_t j = 0; j < m; ++j) {
          proba_out[(i0 + j) * k + cls] +=
              learning_rate_ * leaf_values_[static_cast<size_t>(payload[j])];
        }
      }
    }
  }
  FinalizeRows(n, proba_out);
}

void ExecEngine::FinalizeRows(size_t n, double* proba_out) const {
  const size_t k = static_cast<size_t>(num_classes_);
  if (num_classes_ == 2) {
    for (size_t i = 0; i < n; ++i) {
      const double p1 = Sigmoid(proba_out[i * 2 + 1]);
      proba_out[i * 2] = 1.0 - p1;
      proba_out[i * 2 + 1] = p1;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    std::span<double> row(proba_out + i * k, k);
    Softmax(row, row);  // element-wise in place; see link_functions.h
  }
}

}  // namespace rc::ml
