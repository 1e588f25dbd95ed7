#include "src/ml/dataset.h"

#include <algorithm>
#include <atomic>
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

namespace {

// Puts the order statistics at `ranks` (ascending, each in [lo, hi)) of
// col[lo, hi) at their sorted positions, as a full sort would, with one
// nth_element per rank on a shrinking range. Only the sign of a zero can
// differ from a sort's: -0.0 and +0.0 compare equal.
void SelectRanks(std::vector<double>& col, size_t lo, size_t hi,
                 std::span<const size_t> ranks) {
  if (ranks.empty()) return;
  const size_t mid = ranks.size() / 2;
  const size_t r = ranks[mid];
  std::nth_element(col.begin() + static_cast<std::ptrdiff_t>(lo),
                   col.begin() + static_cast<std::ptrdiff_t>(r),
                   col.begin() + static_cast<std::ptrdiff_t>(hi));
  SelectRanks(col, lo, r, ranks.first(mid));
  SelectRanks(col, r + 1, hi, ranks.subspan(mid + 1));
}

}  // namespace

FeatureBinner FeatureBinner::Fit(const Dataset& data, int max_bins) {
  if (max_bins < 2 || max_bins > 256) {
    throw std::invalid_argument("FeatureBinner: max_bins must be in [2, 256]");
  }
  FeatureBinner binner;
  const size_t rows = data.num_rows();
  const size_t features = data.num_features();
  binner.boundaries_.resize(features);
  if (rows == 0) return binner;
  // Rank 0 (the minimum) and the equal-frequency quantile ranks
  // rows * b / max_bins, b in [1, max_bins), without repeats.
  std::vector<size_t> ranks{0};
  for (int b = 1; b < max_bins; ++b) {
    const size_t idx = rows * static_cast<size_t>(b) / static_cast<size_t>(max_bins);
    if (idx != ranks.back()) ranks.push_back(idx);
  }
  // Each feature's boundaries depend only on its own column, so threads take
  // features one at a time from a shared counter, with identical results
  // for any thread count or order.
  std::atomic<size_t> next_feature{0};
  const size_t threads = std::min(HardwareThreads(), features);
  ParallelFor(threads, threads, [&](size_t, size_t) {
    std::vector<double> col(rows);
    for (size_t f = next_feature.fetch_add(1); f < features; f = next_feature.fetch_add(1)) {
      for (size_t i = 0; i < rows; ++i) col[i] = data.Value(i, f);
      SelectRanks(col, 0, rows, ranks);
      const double min = col[0];
      auto& bounds = binner.boundaries_[f];
      // Candidate boundaries at the quantile ranks; deduplicate so
      // low-cardinality (categorical) features get one bin per value. A
      // boundary equal to the minimum would leave bin 0 empty (bin b holds
      // values in [bounds[b-1], bounds[b])), so such candidates are skipped;
      // a boundary equal to the maximum is fine (the max gets its own bin).
      // A zero boundary is kept as +0.0, whichever zero sits at its rank.
      for (size_t j = 1; j < ranks.size(); ++j) {
        double v = col[ranks[j]];
        if (v == 0.0) v = 0.0;
        if (v > min && (bounds.empty() || v > bounds.back())) bounds.push_back(v);
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
  const size_t features = data.num_features();
  std::vector<uint8_t> out(rows * features);
  // Row ranges across threads: each row's values are read once, in order,
  // and each thread writes its own stretch of every column.
  ParallelFor(rows, HardwareThreads(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const std::span<const double> row = data.Row(i);
      for (size_t f = 0; f < features; ++f) {
        out[f * rows + i] = static_cast<uint8_t>(Bin(f, row[f]));
      }
    }
  });
  return out;
}

}  // namespace rc::ml
