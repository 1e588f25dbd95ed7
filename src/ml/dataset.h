// Feature-matrix container for training and evaluation. Row-major doubles
// with named columns plus integer class labels. Categorical attributes are
// integer-encoded by the feature extraction layer (src/core/featurizer);
// trees split them as ordered values, which is standard practice for
// gradient-boosting implementations with moderate cardinality.
#ifndef RC_SRC_ML_DATASET_H_
#define RC_SRC_ML_DATASET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rc::ml {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> feature_names);

  size_t num_rows() const { return labels_.size(); }
  size_t num_features() const { return feature_names_.size(); }
  const std::vector<std::string>& feature_names() const { return feature_names_; }

  // Appends a row; `x.size()` must equal num_features().
  void AddRow(std::span<const double> x, int label);

  std::span<const double> Row(size_t i) const {
    return {values_.data() + i * num_features(), num_features()};
  }
  double Value(size_t row, size_t feature) const {
    return values_[row * num_features() + feature];
  }
  int Label(size_t i) const { return labels_[i]; }
  const std::vector<int>& labels() const { return labels_; }

  // Number of distinct classes, assuming labels are 0..k-1.
  int NumClasses() const;

  void Reserve(size_t rows);

 private:
  std::vector<std::string> feature_names_;
  std::vector<double> values_;  // row-major
  std::vector<int> labels_;
};

// Equal-frequency (quantile) binning of features into at most `max_bins`
// bins per feature. Trees train on the binned representation (fast histogram
// splits) but store raw-value thresholds so inference works on raw features.
class FeatureBinner {
 public:
  // Learns bin boundaries from the data: the values at the equal-frequency
  // ranks, taken by selection rather than a full sort, with threads taking
  // one feature at a time. The result does not depend on the thread count.
  // A zero boundary is always +0.0.
  static FeatureBinner Fit(const Dataset& data, int max_bins = 64);

  // Bin index of value v for feature f, in [0, NumBins(f)).
  int Bin(size_t f, double v) const;
  int NumBins(size_t f) const { return static_cast<int>(boundaries_[f].size()) + 1; }
  size_t num_features() const { return boundaries_.size(); }

  // Raw-value threshold for the split "bin <= b" on feature f: values go to
  // the left child iff raw value < SplitThreshold(f, b). Requires
  // b < NumBins(f) - 1 (the top bin has no right boundary).
  double SplitThreshold(size_t f, int b) const {
    return boundaries_[f][static_cast<size_t>(b)];
  }

  // Column-major binned matrix: entry (row, f) at [f * rows + row]. Filled
  // in parallel over row ranges, reading each row once.
  std::vector<uint8_t> Transform(const Dataset& data) const;

 private:
  // boundaries_[f] is sorted; bin(v) = number of boundaries <= v (upper_bound).
  std::vector<std::vector<double>> boundaries_;
};

}  // namespace rc::ml

#endif  // RC_SRC_ML_DATASET_H_
