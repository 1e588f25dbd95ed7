#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace rc {

void OnlineStats::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  size_t total = n_ + other.n_;
  double na = static_cast<double>(n_);
  double nb = static_cast<double>(other.n_);
  mean_ += delta * nb / static_cast<double>(total);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(total);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = total;
}

double OnlineStats::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::sample_variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::cov() const {
  if (n_ == 0 || mean_ == 0.0) return 0.0;
  return stddev() / std::abs(mean_);
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double m = Mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) { return std::sqrt(Variance(xs)); }

double CoefficientOfVariation(const std::vector<double>& xs) {
  double m = Mean(xs);
  if (xs.empty() || m == 0.0) return 0.0;
  return StdDev(xs) / std::abs(m);
}

namespace {

// Where percentile p falls among n ascending values x: the answer is
// x[lo] + frac * (x[lo + 1] - x[lo]) when `interpolate`, else x[lo].
struct PercentileRank {
  size_t lo;
  double frac;
  bool interpolate;
};

PercentileRank RankOf(size_t n, double p) {
  if (n == 0) throw std::invalid_argument("Percentile of empty data");
  if (p <= 0.0) return {0, 0.0, false};
  if (p >= 100.0) return {n - 1, 0.0, false};
  double rank = p / 100.0 * static_cast<double>(n - 1);
  size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= n) return {n - 1, 0.0, false};
  return {lo, rank - static_cast<double>(lo), true};
}

double Lerp(double a, double b, double frac) { return a + frac * (b - a); }

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double p) {
  const PercentileRank r = RankOf(sorted.size(), p);
  return r.interpolate ? Lerp(sorted[r.lo], sorted[r.lo + 1], r.frac) : sorted[r.lo];
}

double Percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return PercentileSorted(xs, p);
}

double PercentileSelect(std::span<double> xs, double p) {
  const PercentileRank r = RankOf(xs.size(), p);
  const auto lo = xs.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(xs.begin(), lo, xs.end());
  if (!r.interpolate) return *lo;
  // After the partition, rank lo + 1 is the least value above position lo.
  return Lerp(*lo, *std::min_element(lo + 1, xs.end()), r.frac);
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 50.0); }

}  // namespace rc
