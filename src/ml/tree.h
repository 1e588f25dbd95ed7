// Histogram-based CART decision tree. One implementation serves both
// ensemble families of Table 1: Gini-impurity classification trees (Random
// Forest) and second-order gradient regression trees (Extreme Gradient
// Boosting). Training operates on a quantile-binned matrix (FeatureBinner)
// for O(bins) split scans; inference walks raw feature values against stored
// raw-value thresholds, so a trained tree is self-contained. A caller sets
// only the depth and leaf size (TreeConfig); the minimum split gain and the
// leaf regularization are the constants below, and only a classification
// tree samples features, as many per node as its caller asks for.
#ifndef RC_SRC_ML_TREE_H_
#define RC_SRC_ML_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/ml/bytes.h"
#include "src/ml/dataset.h"

namespace rc::ml {

struct TreeConfig {
  int max_depth = 10;
  int min_samples_leaf = 2;
};

// A split is taken only if it beats the best so far by more than this.
inline constexpr double kMinGain = 1e-7;
// L2 regularization on regression leaf values (XGBoost's lambda).
inline constexpr double kLambda = 1.0;

// Read-only view of a binned training matrix.
struct BinnedView {
  const uint8_t* bins = nullptr;  // column-major: bins[f * rows + i]
  size_t rows = 0;
  size_t features = 0;
  const FeatureBinner* binner = nullptr;

  uint8_t Bin(size_t row, size_t f) const { return bins[f * rows + row]; }
};

// A (gradient, hessian) pair: one row's, gathered into node order, or one
// histogram bin's sums. 16-byte aligned so one 128-bit add updates a bin.
struct alignas(16) GradPair {
  double g = 0.0;
  double h = 0.0;
};

// One feature's gradient histogram under construction: the feature's binned
// column and the per-bin sums and row counts it accumulates into.
struct GradHistogram {
  const uint8_t* column = nullptr;
  GradPair* sums = nullptr;
  uint32_t* counts = nullptr;
};

// The split search's histogram kernel. For every histogram, adds gh[i] to
// bin column[rows[i]] and counts the row, for i in order, so each bin sums
// its rows in row order. Histograms are built two per pass over `rows`; the
// caller zeroes their bins first. Exposed so a test can pin it to a naive
// one-feature-at-a-time loop.
void BuildGradHistograms(std::span<const uint32_t> rows, const GradPair* gh,
                         std::span<const GradHistogram> histograms);

// Histogram subtraction: turns a parent's bins into its larger child's by
// taking away the smaller child's, bin for bin. Counts come out exact; each
// sum can differ from a direct sum of the child's rows by rounding. Exposed
// so a test can bound that difference.
void SubtractGradHistograms(std::span<GradPair> sums, std::span<uint32_t> counts,
                            std::span<const GradPair> child_sums,
                            std::span<const uint32_t> child_counts);

class DecisionTree {
 public:
  // Tree node in the AoS layout produced by training/deserialization. Public
  // (read-only via nodes()) so ExecEngine can flatten the tree into its SoA
  // node pool without re-walking the serialized form.
  struct Node {
    int32_t feature = -1;   // -1 for leaves
    double threshold = 0.0; // go left iff x[feature] < threshold
    int32_t left = -1;
    int32_t right = -1;
    int32_t payload = -1;   // leaves: index into leaf storage
  };

  DecisionTree() = default;

  // Fits a Gini classification tree. `row_indices` selects (possibly
  // repeated, for bagging) training rows. Each node searches `max_features`
  // features drawn from `rng` (all of them when it is 0 or at least F).
  static DecisionTree FitClassifier(const BinnedView& data, std::span<const int> labels,
                                    std::span<const uint32_t> row_indices, int num_classes,
                                    const TreeConfig& config, int max_features, Rng& rng);

  // Fits a regression tree to per-row gradient/hessian pairs (Newton
  // boosting); leaf value is -sum(g) / (sum(h) + kLambda). Every node
  // searches every feature, so no Rng is needed. When `row_values`
  // is non-empty (one entry per data row), each training row's entry
  // receives the value of the leaf it was partitioned into: the value
  // PredictValue gives that row, because bin routing (bin <= b) and
  // threshold routing (x < SplitThreshold(f, b)) agree. When both children
  // of a split will search, only the smaller child's histograms are built
  // from its rows; the larger child's are the parent's minus the smaller's.
  static DecisionTree FitRegressor(const BinnedView& data, std::span<const double> grad,
                                   std::span<const double> hess,
                                   std::span<const uint32_t> row_indices,
                                   const TreeConfig& config,
                                   std::span<double> row_values = {});

  bool is_classifier() const { return num_classes_ > 0; }
  int num_classes() const { return num_classes_; }
  size_t node_count() const { return nodes_.size(); }
  size_t leaf_count() const;
  int depth() const;

  // Classification: writes class probabilities into `out` (num_classes).
  void PredictProba(std::span<const double> x, std::span<double> out) const;
  // Regression: leaf value for x.
  double PredictValue(std::span<const double> x) const;

  // Total Gini / loss-reduction gain attributed to each feature during
  // training (empty if deserialized from an old buffer; always sized to the
  // training feature count otherwise).
  const std::vector<double>& gain_importance() const { return gain_importance_; }

  // Read-only structural access for the ExecEngine compiler (and tests).
  std::span<const Node> nodes() const { return nodes_; }
  std::span<const float> leaf_probs() const { return leaf_probs_; }
  std::span<const double> leaf_values() const { return leaf_values_; }

  void Serialize(ByteWriter& w) const;
  // Deserializes and structurally validates one tree. When the caller knows
  // the ensemble contract it can pass `expected_classes` (exact match; GBT
  // regression trees use 0) and `num_features` (exclusive upper bound on
  // split feature indices); -1 skips the respective check.
  static DecisionTree Deserialize(ByteReader& r, int32_t expected_classes = -1,
                                  int32_t num_features = -1);

 private:
  size_t FindLeaf(std::span<const double> x) const;

  std::vector<Node> nodes_;
  int num_classes_ = 0;                // 0 => regression tree
  std::vector<float> leaf_probs_;      // classification: payload * k + c
  std::vector<double> leaf_values_;    // regression
  std::vector<double> gain_importance_;

  friend class TreeTrainer;
};

// Gain importance of an ensemble: each feature's gain_importance() summed
// over `trees` in order, then normalized to sum to 1 (left all zeros when no
// split gained anything).
std::vector<double> NormalizedGainImportance(std::span<const DecisionTree> trees,
                                             size_t num_features);

}  // namespace rc::ml

#endif  // RC_SRC_ML_TREE_H_
