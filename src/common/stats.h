// Descriptive statistics helpers shared by the characterization toolkit, the
// ML substrate, and the benchmark harness.
#ifndef RC_SRC_COMMON_STATS_H_
#define RC_SRC_COMMON_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace rc {

// Streaming mean/variance via Welford's algorithm. O(1) memory; numerically
// stable for long telemetry streams.
class OnlineStats {
 public:
  void Add(double x);
  void Merge(const OnlineStats& other);

  size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Population variance (divides by n).
  double variance() const;
  // Sample variance (divides by n-1); 0 when fewer than 2 samples.
  double sample_variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  // Coefficient of variation: stddev / mean; 0 when mean == 0.
  double cov() const;

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double Mean(const std::vector<double>& xs);
double Variance(const std::vector<double>& xs);  // population variance
double StdDev(const std::vector<double>& xs);
// Coefficient of variation (stddev / mean). Returns 0 for empty input or
// zero mean — callers bucketing subscriptions by "CoV < 1" treat a constant
// series as perfectly consistent, which matches the paper's reading.
double CoefficientOfVariation(const std::vector<double>& xs);

// Linear-interpolated percentile, p in [0, 100]. Sorts a copy.
double Percentile(std::vector<double> xs, double p);
// Percentile over data the caller has already sorted ascending.
double PercentileSorted(const std::vector<double>& sorted, double p);
// Same value as Percentile(xs, p), bit for bit, in O(n): selects the one or
// two ranks the interpolation reads instead of sorting. Reorders xs. (Equal
// values are interchangeable, so only data mixing -0.0 and 0.0 could see a
// zero answer's sign differ.)
double PercentileSelect(std::span<double> xs, double p);

double Median(std::vector<double> xs);

}  // namespace rc

#endif  // RC_SRC_COMMON_STATS_H_
