// Categorical histogram.
#ifndef RC_SRC_COMMON_HISTOGRAM_H_
#define RC_SRC_COMMON_HISTOGRAM_H_

#include <map>
#include <string>

namespace rc {

// Weighted counts keyed by string category (e.g. VM size names, buckets).
class CategoricalHistogram {
 public:
  void Add(const std::string& key, double weight = 1.0);
  double count(const std::string& key) const;
  double total() const { return total_; }
  double Fraction(const std::string& key) const;
  const std::map<std::string, double>& counts() const { return counts_; }

 private:
  std::map<std::string, double> counts_;
  double total_ = 0.0;
};

}  // namespace rc

#endif  // RC_SRC_COMMON_HISTOGRAM_H_
