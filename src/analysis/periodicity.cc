#include "src/analysis/periodicity.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/ml/fft.h"
#include "src/trace/utilization.h"

namespace rc::analysis {

using rc::trace::UtilizationModel;
using rc::trace::VmRecord;
using rc::trace::WorkloadClass;

namespace {

// Telemetry analyzed per VM, from creation; shorter series are Unknown.
constexpr int kAnalysisDays = 3;
constexpr SimDuration kMinSpan = kAnalysisDays * kDay;
// A diurnal peak must carry at least this multiple of the median per-bin
// spectral power to count as periodic...
constexpr double kPeakToMedian = 40.0;
// ...and at least this fraction of total signal power. (Still biased toward
// recall: a periodic background VM may be flagged interactive, which the
// paper deems the acceptable direction of error.)
constexpr double kMinPowerFraction = 0.25;

}  // namespace

WorkloadClass ClassifySeries(std::span<const double> avg_series) {
  const size_t n = avg_series.size();
  if (static_cast<SimDuration>(n) * kSlot < kMinSpan) {
    return WorkloadClass::kUnknown;
  }
  std::vector<double> power = rc::ml::PowerSpectrum(avg_series, /*hann_window=*/true);
  if (power.size() < 8) return WorkloadClass::kUnknown;
  const size_t padded = (power.size() - 1) * 2;

  double total = 0.0;
  for (size_t k = 1; k < power.size(); ++k) total += power[k];
  if (total <= 0.0) return WorkloadClass::kDelayInsensitive;

  // Median per-bin power (excluding DC) as the broadband noise floor.
  std::vector<double> sorted(power.begin() + 1, power.end());
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
  double median = sorted[sorted.size() / 2];

  // Diurnal frequency in cycles/sample: one cycle per kSlotsPerDay samples.
  double diurnal_bin = static_cast<double>(padded) / static_cast<double>(kSlotsPerDay);
  auto band_power = [&](double center) {
    size_t lo = static_cast<size_t>(std::max(1.0, std::floor(center - 1.0)));
    size_t hi = static_cast<size_t>(std::min(static_cast<double>(power.size() - 1),
                                             std::ceil(center + 1.0)));
    double p = 0.0;
    for (size_t k = lo; k <= hi; ++k) p = std::max(p, power[k]);
    return p;
  };
  // Check the fundamental and its first harmonic (12 h), since workday
  // patterns often split power across both.
  double peak = std::max(band_power(diurnal_bin), band_power(2.0 * diurnal_bin));

  bool periodic = peak > kPeakToMedian * std::max(median, 1e-12) &&
                  peak > kMinPowerFraction * total;
  return periodic ? WorkloadClass::kInteractive : WorkloadClass::kDelayInsensitive;
}

WorkloadClass ClassifyVm(const VmRecord& vm) {
  if (vm.lifetime() < kMinSpan) return WorkloadClass::kUnknown;
  int64_t from = SlotIndex(vm.created) + 1;
  int64_t span_slots = std::min<int64_t>(vm.lifetime() / kSlot,
                                         kAnalysisDays * kSlotsPerDay);
  std::vector<double> series = UtilizationModel::AvgSeries(vm.util, from, span_slots);
  return ClassifySeries(series);
}

}  // namespace rc::analysis
