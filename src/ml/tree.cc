#include "src/ml/tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rc::ml {

namespace {
constexpr size_t kMaxBins = 256;

// bin += x as one 128-bit add where SSE2 is available; the two lanes are the
// same IEEE additions the scalar fallback performs, so both give equal bits.
inline void AddTo(GradPair& bin, const GradPair& x) {
#if defined(__SSE2__)
  _mm_store_pd(&bin.g, _mm_add_pd(_mm_load_pd(&bin.g), _mm_load_pd(&x.g)));
#else
  bin.g += x.g;
  bin.h += x.h;
#endif
}

// bin -= x, lane for lane, as AddTo adds.
inline void SubFrom(GradPair& bin, const GradPair& x) {
#if defined(__SSE2__)
  _mm_store_pd(&bin.g, _mm_sub_pd(_mm_load_pd(&bin.g), _mm_load_pd(&x.g)));
#else
  bin.g -= x.g;
  bin.h -= x.h;
#endif
}
}  // namespace

void BuildGradHistograms(std::span<const uint32_t> rows, const GradPair* gh,
                         std::span<const GradHistogram> histograms) {
  const size_t n = rows.size();
  size_t f = 0;
  // Two features per pass: their bin chains are independent, so two updates
  // are in flight while a run of rows keeps hitting the same bin.
  for (; f + 1 < histograms.size(); f += 2) {
    const uint8_t* col_a = histograms[f].column;
    const uint8_t* col_b = histograms[f + 1].column;
    GradPair* sums_a = histograms[f].sums;
    GradPair* sums_b = histograms[f + 1].sums;
    uint32_t* counts_a = histograms[f].counts;
    uint32_t* counts_b = histograms[f + 1].counts;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = rows[i];
      const uint8_t a = col_a[row];
      const uint8_t b = col_b[row];
      AddTo(sums_a[a], gh[i]);
      AddTo(sums_b[b], gh[i]);
      ++counts_a[a];
      ++counts_b[b];
    }
  }
  if (f < histograms.size()) {
    const uint8_t* col = histograms[f].column;
    GradPair* sums = histograms[f].sums;
    uint32_t* counts = histograms[f].counts;
    for (size_t i = 0; i < n; ++i) {
      const uint8_t b = col[rows[i]];
      AddTo(sums[b], gh[i]);
      ++counts[b];
    }
  }
}

void SubtractGradHistograms(std::span<GradPair> sums, std::span<uint32_t> counts,
                            std::span<const GradPair> child_sums,
                            std::span<const uint32_t> child_counts) {
  for (size_t i = 0; i < sums.size(); ++i) {
    SubFrom(sums[i], child_sums[i]);
    counts[i] -= child_counts[i];
  }
}

// Shared training machinery for both tree modes. Rows live in one index
// buffer that is partitioned in place as the tree grows.
class TreeTrainer {
 public:
  TreeTrainer(const BinnedView& data, const TreeConfig& config) : data_(data), config_(config) {
    if (data_.binner == nullptr || data_.bins == nullptr) {
      throw std::invalid_argument("TreeTrainer: null binned view");
    }
  }

  DecisionTree TrainClassifier(std::span<const int> labels,
                               std::span<const uint32_t> row_indices, int num_classes,
                               int max_features, Rng& rng) {
    labels_ = labels;
    num_classes_ = num_classes;
    max_features_ = max_features > 0
                        ? std::min<size_t>(static_cast<size_t>(max_features), data_.features)
                        : data_.features;
    rng_ = &rng;
    feature_scratch_.resize(data_.features);
    std::iota(feature_scratch_.begin(), feature_scratch_.end(), 0u);
    tree_.num_classes_ = num_classes;
    tree_.gain_importance_.assign(data_.features, 0.0);
    idx_.assign(row_indices.begin(), row_indices.end());
    BuildNode(0, idx_.size(), 0, false);
    return std::move(tree_);
  }

  DecisionTree TrainRegressor(std::span<const double> grad, std::span<const double> hess,
                              std::span<const uint32_t> row_indices,
                              std::span<double> row_values) {
    grad_ = grad;
    hess_ = hess;
    row_values_ = row_values;
    node_gh_.resize(row_indices.size());
    // Every splittable feature's bins, back to back, sized by its real bin
    // count; features with one bin never split and get none.
    std::vector<size_t> bin_offset;  // split_features_[j]'s first bin in a slot
    size_t total_bins = 0;
    for (uint32_t f = 0; f < data_.features; ++f) {
      const size_t bins = static_cast<size_t>(data_.binner->NumBins(f));
      if (bins < 2) continue;
      split_features_.push_back(f);
      bin_offset.push_back(total_bins);
      total_bins += bins;
    }
    slots_.resize(static_cast<size_t>(std::max(config_.max_depth, 0)));
    for (HistSlot& slot : slots_) {
      slot.sums.resize(total_bins);
      slot.counts.resize(total_bins);
      for (size_t j = 0; j < split_features_.size(); ++j) {
        slot.hists.push_back(GradHistogram{
            data_.bins + static_cast<size_t>(split_features_[j]) * data_.rows,
            slot.sums.data() + bin_offset[j], slot.counts.data() + bin_offset[j]});
      }
    }
    num_classes_ = 0;
    tree_.num_classes_ = 0;
    tree_.gain_importance_.assign(data_.features, 0.0);
    idx_.assign(row_indices.begin(), row_indices.end());
    BuildNode(0, idx_.size(), 0, false);
    return std::move(tree_);
  }

 private:
  // One node's histograms: every splittable feature's bins, back to back.
  struct HistSlot {
    std::vector<GradPair> sums;
    std::vector<uint32_t> counts;
    std::vector<GradHistogram> hists;  // split_features_[j]'s column and bins
  };

  struct Split {
    bool found = false;
    size_t feature = 0;
    int bin = 0;  // go left iff Bin(row, feature) <= bin
    double gain = 0.0;
  };

  bool IsClassification() const { return num_classes_ > 0; }

  bool Searches(size_t n, int depth) const {
    return depth < config_.max_depth && n >= 2 * static_cast<size_t>(config_.min_samples_leaf);
  }

  // Builds the subtree over idx_[begin, end); returns its node index. A
  // regression node that searches keeps its histograms in slots_[depth];
  // `has_hists` says its parent already put them there.
  int32_t BuildNode(size_t begin, size_t end, int depth, bool has_hists) {
    size_t n = end - begin;
    int32_t node_id = static_cast<int32_t>(tree_.nodes_.size());
    tree_.nodes_.emplace_back();

    Split split;
    if (Searches(n, depth)) {
      split = IsClassification() ? FindBestSplitGini(begin, end)
                                 : FindBestSplitGrad(begin, end, depth, has_hists);
    }
    if (!split.found) {
      MakeLeaf(node_id, begin, end);
      return node_id;
    }

    tree_.gain_importance_[split.feature] += split.gain;
    // Partition rows: bins <= split.bin go left.
    const uint8_t* col = data_.bins + split.feature * data_.rows;
    auto mid_it = std::partition(idx_.begin() + begin, idx_.begin() + end,
                                 [&](uint32_t row) { return col[row] <= split.bin; });
    size_t mid = static_cast<size_t>(mid_it - idx_.begin());
    if (mid == begin || mid == end) {
      // Should not happen (split scan guarantees both sides non-empty), but
      // degenerate to a leaf rather than recurse forever.
      MakeLeaf(node_id, begin, end);
      return node_id;
    }

    tree_.nodes_[node_id].feature = static_cast<int32_t>(split.feature);
    tree_.nodes_[node_id].threshold = data_.binner->SplitThreshold(split.feature, split.bin);
    // Histogram subtraction: when both children will search, build the
    // smaller child's histograms from its rows into slots_[depth + 1] and
    // turn the parent's, in slots_[depth], into the larger child's. Each
    // child finds its own in slots_[depth + 1] when it runs; the left
    // subtree writes only slots deeper than depth, so the right child's
    // wait in slots_[depth] until they swap in.
    const size_t n_left = mid - begin;
    const bool subtract = !IsClassification() && Searches(n_left, depth + 1) &&
                          Searches(end - mid, depth + 1);
    if (subtract) {
      const bool left_smaller = n_left <= end - mid;
      HistSlot& parent = slots_[static_cast<size_t>(depth)];
      HistSlot& smaller = slots_[static_cast<size_t>(depth) + 1];
      GatherGradients(left_smaller ? begin : mid, left_smaller ? mid : end);
      BuildHistograms(smaller, left_smaller ? begin : mid, left_smaller ? mid : end);
      SubtractGradHistograms(parent.sums, parent.counts, smaller.sums, smaller.counts);
      if (!left_smaller) std::swap(parent, smaller);
    }
    int32_t left = BuildNode(begin, mid, depth + 1, subtract);
    if (subtract) {
      std::swap(slots_[static_cast<size_t>(depth)], slots_[static_cast<size_t>(depth) + 1]);
    }
    int32_t right = BuildNode(mid, end, depth + 1, subtract);
    tree_.nodes_[node_id].left = left;
    tree_.nodes_[node_id].right = right;
    return node_id;
  }

  void MakeLeaf(int32_t node_id, size_t begin, size_t end) {
    auto& node = tree_.nodes_[static_cast<size_t>(node_id)];
    node.feature = -1;
    if (IsClassification()) {
      node.payload = static_cast<int32_t>(tree_.leaf_probs_.size() /
                                          static_cast<size_t>(num_classes_));
      std::vector<double> counts(static_cast<size_t>(num_classes_), 0.0);
      for (size_t i = begin; i < end; ++i) counts[static_cast<size_t>(labels_[idx_[i]])] += 1.0;
      double total = static_cast<double>(end - begin);
      for (double c : counts) {
        tree_.leaf_probs_.push_back(static_cast<float>(c / total));
      }
    } else {
      node.payload = static_cast<int32_t>(tree_.leaf_values_.size());
      double g = 0.0, h = 0.0;
      for (size_t i = begin; i < end; ++i) {
        g += grad_[idx_[i]];
        h += hess_[idx_[i]];
      }
      const double value = -g / (h + kLambda);
      tree_.leaf_values_.push_back(value);
      if (!row_values_.empty()) {
        for (size_t i = begin; i < end; ++i) row_values_[idx_[i]] = value;
      }
    }
  }

  // Candidate features for this node: all, or a uniform subsample.
  std::span<const uint32_t> SampleFeatures() {
    if (max_features_ == data_.features) return feature_scratch_;
    // Partial Fisher-Yates: the first max_features_ entries become the sample.
    for (size_t i = 0; i < max_features_; ++i) {
      size_t j = static_cast<size_t>(
          rng_->UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(data_.features) - 1));
      std::swap(feature_scratch_[i], feature_scratch_[j]);
    }
    return {feature_scratch_.data(), max_features_};
  }

  Split FindBestSplitGini(size_t begin, size_t end) {
    const size_t n = end - begin;
    const size_t k = static_cast<size_t>(num_classes_);
    // Parent class counts.
    std::vector<double> parent(k, 0.0);
    for (size_t i = begin; i < end; ++i) parent[static_cast<size_t>(labels_[idx_[i]])] += 1.0;
    double parent_gini = GiniImpurity(parent, static_cast<double>(n));

    Split best;
    std::vector<double> hist(kMaxBins * k);
    std::vector<double> left(k);
    for (uint32_t f : SampleFeatures()) {
      int bins = data_.binner->NumBins(f);
      if (bins < 2) continue;
      std::fill(hist.begin(), hist.begin() + static_cast<size_t>(bins) * k, 0.0);
      const uint8_t* col = data_.bins + static_cast<size_t>(f) * data_.rows;
      for (size_t i = begin; i < end; ++i) {
        uint32_t row = idx_[i];
        hist[static_cast<size_t>(col[row]) * k + static_cast<size_t>(labels_[row])] += 1.0;
      }
      std::fill(left.begin(), left.end(), 0.0);
      double n_left = 0.0;
      for (int b = 0; b < bins - 1; ++b) {
        for (size_t c = 0; c < k; ++c) {
          double v = hist[static_cast<size_t>(b) * k + c];
          left[c] += v;
          n_left += v;
        }
        double n_right = static_cast<double>(n) - n_left;
        if (n_left < config_.min_samples_leaf || n_right < config_.min_samples_leaf) {
          continue;
        }
        double gini_left = 0.0, gini_right = 0.0;
        for (size_t c = 0; c < k; ++c) {
          double l = left[c];
          double r = parent[c] - l;
          gini_left += l * l;
          gini_right += r * r;
        }
        // impurity = 1 - sum(p^2); weighted children impurity:
        double child =
            (n_left - gini_left / n_left) + (n_right - gini_right / n_right);
        double gain = parent_gini * static_cast<double>(n) - child;
        if (gain > best.gain + kMinGain) {
          best.found = true;
          best.feature = f;
          best.bin = b;
          best.gain = gain;
        }
      }
    }
    return best;
  }

  // Ordered gradients: gathers the (grad, hess) pairs of idx_[begin, end)
  // into node_gh_ in node order, so every feature's histogram pass reads
  // them contiguously, and returns their sums, added in that order.
  GradPair GatherGradients(size_t begin, size_t end) {
    GradPair* gh = node_gh_.data();
    GradPair total;
    for (size_t i = 0; i < end - begin; ++i) {
      const uint32_t row = idx_[begin + i];
      gh[i] = GradPair{grad_[row], hess_[row]};
      total.g += gh[i].g;
      total.h += gh[i].h;
    }
    return total;
  }

  // Every splittable feature's histogram of idx_[begin, end), from the
  // pairs GatherGradients just put in node_gh_.
  void BuildHistograms(HistSlot& slot, size_t begin, size_t end) {
    std::fill(slot.sums.begin(), slot.sums.end(), GradPair{});
    std::fill(slot.counts.begin(), slot.counts.end(), 0u);
    BuildGradHistograms({idx_.data() + begin, end - begin}, node_gh_.data(), slot.hists);
  }

  Split FindBestSplitGrad(size_t begin, size_t end, int depth, bool has_hists) {
    const GradPair total = GatherGradients(begin, end);
    HistSlot& slot = slots_[static_cast<size_t>(depth)];
    if (!has_hists) BuildHistograms(slot, begin, end);
    Split best;
    for (size_t j = 0; j < split_features_.size(); ++j) {
      ScanGradHistogram(split_features_[j], slot.hists[j], end - begin, total.g, total.h, best);
    }
    return best;
  }

  // The gain scan over one feature's histogram; keeps `best` unless a bin
  // beats it by more than kMinGain.
  void ScanGradHistogram(uint32_t f, const GradHistogram& hist, size_t n, double g_total,
                         double h_total, Split& best) const {
    const double parent_score = g_total * g_total / (h_total + kLambda);
    const int bins = data_.binner->NumBins(f);
    double g_left = 0.0, h_left = 0.0;
    size_t n_left = 0;
    for (int b = 0; b < bins - 1; ++b) {
      g_left += hist.sums[b].g;
      h_left += hist.sums[b].h;
      n_left += hist.counts[b];
      size_t n_right = n - n_left;
      if (n_left < static_cast<size_t>(config_.min_samples_leaf) ||
          n_right < static_cast<size_t>(config_.min_samples_leaf)) {
        continue;
      }
      double g_right = g_total - g_left;
      double h_right = h_total - h_left;
      double gain = g_left * g_left / (h_left + kLambda) +
                    g_right * g_right / (h_right + kLambda) - parent_score;
      if (gain > best.gain + kMinGain) {
        best.found = true;
        best.feature = f;
        best.bin = b;
        best.gain = gain;
      }
    }
  }

  static double GiniImpurity(const std::vector<double>& counts, double n) {
    if (n <= 0.0) return 0.0;
    double s = 0.0;
    for (double c : counts) s += c * c;
    return 1.0 - s / (n * n);
  }

  const BinnedView& data_;
  const TreeConfig& config_;
  Rng* rng_ = nullptr;       // classification: draws each node's features
  size_t max_features_ = 0;  // classification: features searched per node

  std::span<const int> labels_;
  std::span<const double> grad_;
  std::span<const double> hess_;
  std::span<double> row_values_;  // regression: each training row's leaf value
  int num_classes_ = 0;

  std::vector<uint32_t> idx_;
  std::vector<uint32_t> feature_scratch_;
  // Gradient split-search scratch, sized once per tree and reused by every
  // node.
  std::vector<GradPair> node_gh_;          // a node's rows' (grad, hess), node order
  std::vector<uint32_t> split_features_;   // features with at least two bins
  std::vector<HistSlot> slots_;            // slots_[d]: the searching node at depth d
  DecisionTree tree_;
};

DecisionTree DecisionTree::FitClassifier(const BinnedView& data, std::span<const int> labels,
                                         std::span<const uint32_t> row_indices,
                                         int num_classes, const TreeConfig& config,
                                         int max_features, Rng& rng) {
  if (row_indices.empty()) throw std::invalid_argument("FitClassifier: no rows");
  TreeTrainer trainer(data, config);
  return trainer.TrainClassifier(labels, row_indices, num_classes, max_features, rng);
}

DecisionTree DecisionTree::FitRegressor(const BinnedView& data, std::span<const double> grad,
                                        std::span<const double> hess,
                                        std::span<const uint32_t> row_indices,
                                        const TreeConfig& config,
                                        std::span<double> row_values) {
  if (row_indices.empty()) throw std::invalid_argument("FitRegressor: no rows");
  TreeTrainer trainer(data, config);
  return trainer.TrainRegressor(grad, hess, row_indices, row_values);
}

std::vector<double> NormalizedGainImportance(std::span<const DecisionTree> trees,
                                             size_t num_features) {
  std::vector<double> acc(num_features, 0.0);
  for (const auto& tree : trees) {
    const auto& gains = tree.gain_importance();
    for (size_t f = 0; f < gains.size() && f < acc.size(); ++f) acc[f] += gains[f];
  }
  const double total = std::accumulate(acc.begin(), acc.end(), 0.0);
  if (total > 0.0) {
    for (double& v : acc) v /= total;
  }
  return acc;
}

size_t DecisionTree::leaf_count() const {
  size_t leaves = 0;
  for (const auto& node : nodes_) {
    if (node.feature < 0) ++leaves;
  }
  return leaves;
}

int DecisionTree::depth() const {
  // Depth via iterative DFS with explicit depth tracking.
  if (nodes_.empty()) return 0;
  int max_depth = 0;
  std::vector<std::pair<int32_t, int>> stack{{0, 1}};
  while (!stack.empty()) {
    auto [id, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& node = nodes_[static_cast<size_t>(id)];
    if (node.feature >= 0) {
      stack.emplace_back(node.left, d + 1);
      stack.emplace_back(node.right, d + 1);
    }
  }
  return max_depth;
}

size_t DecisionTree::FindLeaf(std::span<const double> x) const {
  size_t id = 0;
  while (true) {
    const Node& node = nodes_[id];
    if (node.feature < 0) return id;
    id = static_cast<size_t>(x[static_cast<size_t>(node.feature)] < node.threshold
                                 ? node.left
                                 : node.right);
  }
}

void DecisionTree::PredictProba(std::span<const double> x, std::span<double> out) const {
  const Node& leaf = nodes_[FindLeaf(x)];
  const float* probs =
      leaf_probs_.data() + static_cast<size_t>(leaf.payload) * static_cast<size_t>(num_classes_);
  for (int c = 0; c < num_classes_; ++c) out[static_cast<size_t>(c)] = probs[c];
}

double DecisionTree::PredictValue(std::span<const double> x) const {
  const Node& leaf = nodes_[FindLeaf(x)];
  return leaf_values_[static_cast<size_t>(leaf.payload)];
}

void DecisionTree::Serialize(ByteWriter& w) const {
  w.I32(num_classes_);
  w.U32(static_cast<uint32_t>(nodes_.size()));
  for (const auto& node : nodes_) {
    w.I32(node.feature);
    w.F64(node.threshold);
    w.I32(node.left);
    w.I32(node.right);
    w.I32(node.payload);
  }
  w.PodVector(leaf_probs_);
  w.PodVector(leaf_values_);
}

DecisionTree DecisionTree::Deserialize(ByteReader& r, int32_t expected_classes,
                                       int32_t num_features) {
  DecisionTree tree;
  tree.num_classes_ = r.I32();
  if (tree.num_classes_ < 0 || tree.num_classes_ > (1 << 20)) {
    throw std::runtime_error("DecisionTree: implausible class count");
  }
  if (expected_classes >= 0 && tree.num_classes_ != expected_classes) {
    throw std::runtime_error("DecisionTree: class count disagrees with ensemble");
  }
  uint32_t n = r.U32();
  // Each serialized node is 24 bytes; a count the buffer cannot possibly
  // back is corruption — reject before the resize() tries to allocate.
  constexpr size_t kNodeBytes = 4 + 8 + 4 + 4 + 4;
  if (n == 0) throw std::runtime_error("DecisionTree: empty tree");
  if (static_cast<size_t>(n) > r.remaining() / kNodeBytes) {
    throw std::runtime_error("DecisionTree: node count exceeds buffer");
  }
  tree.nodes_.resize(n);
  for (auto& node : tree.nodes_) {
    node.feature = r.I32();
    node.threshold = r.F64();
    node.left = r.I32();
    node.right = r.I32();
    node.payload = r.I32();
  }
  tree.leaf_probs_ = r.PodVector<float>();
  tree.leaf_values_ = r.PodVector<double>();
  // Structural validation, so a decoded tree can never walk out of bounds or
  // loop forever at prediction time. Children always follow their parent in
  // the serialized order (the builder appends them after), so requiring
  // child > parent also guarantees traversal terminates.
  int64_t num_leaf_prob_rows =
      tree.num_classes_ > 0
          ? static_cast<int64_t>(tree.leaf_probs_.size()) / tree.num_classes_
          : 0;
  for (size_t i = 0; i < tree.nodes_.size(); ++i) {
    const Node& node = tree.nodes_[i];
    if (node.feature < 0) {  // leaf: payload indexes the leaf tables
      bool valid_payload =
          tree.num_classes_ > 0
              ? node.payload >= 0 && node.payload < num_leaf_prob_rows
              : node.payload >= 0 &&
                    static_cast<size_t>(node.payload) < tree.leaf_values_.size();
      if (!valid_payload) throw std::runtime_error("DecisionTree: leaf payload out of range");
    } else {
      if (node.left <= static_cast<int32_t>(i) || node.right <= static_cast<int32_t>(i) ||
          static_cast<uint32_t>(node.left) >= n || static_cast<uint32_t>(node.right) >= n) {
        throw std::runtime_error("DecisionTree: child index out of range");
      }
      if (num_features >= 0 && node.feature >= num_features) {
        throw std::runtime_error("DecisionTree: split feature out of range");
      }
    }
  }
  return tree;
}

}  // namespace rc::ml
