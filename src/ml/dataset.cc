#include "src/ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/common/parallel.h"

namespace rc::ml {

Dataset::Dataset(std::vector<std::string> feature_names)
    : feature_names_(std::move(feature_names)) {}

void Dataset::AddRow(std::span<const double> x, int label) {
  if (x.size() != num_features()) {
    throw std::invalid_argument("Dataset::AddRow: wrong feature count");
  }
  for (double v : x) {
    if (std::isnan(v)) {
      throw std::invalid_argument("Dataset::AddRow: NaN feature (impute upstream)");
    }
  }
  values_.insert(values_.end(), x.begin(), x.end());
  labels_.push_back(label);
}

int Dataset::NumClasses() const {
  int k = 0;
  for (int label : labels_) k = std::max(k, label + 1);
  return k;
}

void Dataset::Reserve(size_t rows) {
  values_.reserve(rows * num_features());
  labels_.reserve(rows);
}

FeatureBinner FeatureBinner::Fit(const Dataset& data, int max_bins) {
  if (max_bins < 2 || max_bins > 256) {
    throw std::invalid_argument("FeatureBinner: max_bins must be in [2, 256]");
  }
  FeatureBinner binner;
  binner.boundaries_.resize(data.num_features());
  if (data.num_rows() == 0) return binner;
  // Each feature's boundaries depend only on its own column, so features fan
  // out over threads with identical results for any thread count.
  ParallelFor(data.num_features(), HardwareThreads(), [&](size_t begin, size_t end) {
    std::vector<double> col(data.num_rows());
    for (size_t f = begin; f < end; ++f) {
      for (size_t i = 0; i < data.num_rows(); ++i) col[i] = data.Value(i, f);
      std::sort(col.begin(), col.end());
      auto& bounds = binner.boundaries_[f];
      // Candidate boundaries at equal-frequency quantiles; deduplicate so
      // low-cardinality (categorical) features get one bin per value. A
      // boundary equal to the minimum would leave bin 0 empty (bin b holds
      // values in [bounds[b-1], bounds[b])), so such candidates are skipped;
      // a boundary equal to the maximum is fine (the max gets its own bin).
      for (int b = 1; b < max_bins; ++b) {
        size_t idx = col.size() * static_cast<size_t>(b) / static_cast<size_t>(max_bins);
        if (idx >= col.size()) break;
        double v = col[idx];
        if (v > col.front() && (bounds.empty() || v > bounds.back())) bounds.push_back(v);
      }
    }
  });
  return binner;
}

int FeatureBinner::Bin(size_t f, double v) const {
  const auto& bounds = boundaries_[f];
  return static_cast<int>(std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

std::vector<uint8_t> FeatureBinner::Transform(const Dataset& data) const {
  const size_t rows = data.num_rows();
  std::vector<uint8_t> out(rows * data.num_features());
  ParallelFor(data.num_features(), HardwareThreads(), [&](size_t begin, size_t end) {
    for (size_t f = begin; f < end; ++f) {
      uint8_t* col = out.data() + f * rows;
      for (size_t i = 0; i < rows; ++i) col[i] = static_cast<uint8_t>(Bin(f, data.Value(i, f)));
    }
  });
  return out;
}

}  // namespace rc::ml
