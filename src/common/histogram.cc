#include "src/common/histogram.h"

namespace rc {

void CategoricalHistogram::Add(const std::string& key, double weight) {
  counts_[key] += weight;
  total_ += weight;
}

double CategoricalHistogram::count(const std::string& key) const {
  auto it = counts_.find(key);
  return it == counts_.end() ? 0.0 : it->second;
}

double CategoricalHistogram::Fraction(const std::string& key) const {
  if (total_ == 0.0) return 0.0;
  return count(key) / total_;
}

}  // namespace rc
