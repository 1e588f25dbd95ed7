#include "src/trace/utilization.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/common/hashing.h"
#include "src/common/stats.h"

namespace rc::trace {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

inline double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

// HashNoise(seed, k) for inner == HashU64(k).
inline double InnerHashNoise(uint64_t seed, uint64_t inner) {
  return static_cast<double>(HashU64(seed ^ inner) >> 11) * 0x1.0p-53;
}
}  // namespace

double UtilizationModel::HashNoise(uint64_t seed, int64_t k) {
  return InnerHashNoise(seed, HashU64(static_cast<uint64_t>(k)));
}

UtilizationModel::SlotHashes::SlotHashes(int64_t slot) {
  // Knots every hour (kSlotsPerHour slots); piecewise-linear between them.
  const int64_t knot =
      slot >= 0 ? slot / kSlotsPerHour : (slot - kSlotsPerHour + 1) / kSlotsPerHour;
  t_hours = static_cast<double>(slot) * static_cast<double>(kSlot) / kHour;
  knot_frac = static_cast<double>(slot - knot * kSlotsPerHour) /
              static_cast<double>(kSlotsPerHour);
  slot_hash = HashU64(static_cast<uint64_t>(slot));
  knot_hash = HashU64(static_cast<uint64_t>(knot));
  next_knot_hash = HashU64(static_cast<uint64_t>(knot + 1));
}

UtilizationModel::AvgMax UtilizationModel::AvgAndMaxAt(const UtilizationParams& p,
                                                       const SlotHashes& slot) {
  // Diurnal component peaks at diurnal_phase_h and spans [0, diurnal_amp].
  double diurnal = 0.0;
  if (p.diurnal_amp > 0.0) {
    diurnal = p.diurnal_amp * 0.5 *
              (1.0 + std::cos(kTwoPi * (slot.t_hours - p.diurnal_phase_h) / 24.0));
  }
  // Smooth value noise in [-1, 1]: linear interpolation between the hourly
  // knot values.
  double v0 = 2.0 * InnerHashNoise(p.seed, slot.knot_hash) - 1.0;
  double v1 = 2.0 * InnerHashNoise(p.seed, slot.next_knot_hash) - 1.0;
  double smooth = p.noise_amp * (v0 + (v1 - v0) * slot.knot_frac);
  // Small per-slot jitter decorrelates adjacent readings.
  double jitter =
      0.25 * p.noise_amp * (2.0 * InnerHashNoise(p.seed ^ 0x5bd1e995, slot.slot_hash) - 1.0);

  double avg = Clamp01(p.base + diurnal + smooth + jitter);

  // Burst term for the max reading. Each reading is the maximum over a
  // 5-minute window of fine-grained samples, so it sits close to the VM's
  // short-term peak (avg + burst_amp) in nearly every slot, dipping on quiet
  // windows: burst = burst_amp * (1 - 0.35 u^2), mean ~0.88 * burst_amp and
  // 95th percentile ~0.999 * burst_amp even over few slots.
  double u = InnerHashNoise(p.seed ^ 0x9e3779b9, slot.slot_hash);
  double burst = p.burst_amp * (1.0 - 0.35 * u * u);
  return AvgMax{avg, Clamp01(avg + burst)};
}

CpuReading UtilizationModel::ReadingAt(const UtilizationParams& p, int64_t slot) {
  const SlotHashes hashes(slot);
  const AvgMax am = AvgAndMaxAt(p, hashes);
  double d = InnerHashNoise(p.seed ^ 0x7f4a7c15, hashes.slot_hash);
  double dip = 0.5 * (p.burst_amp * 0.3 + p.noise_amp) * d;
  double min = Clamp01(am.avg - dip);
  if (min > am.avg) min = am.avg;

  return CpuReading{min, am.avg, am.max};
}

double UtilizationModel::MaxCpuAt(const UtilizationParams& p, const SlotHashes& slot) {
  return AvgAndMaxAt(p, slot).max;
}

std::vector<double> UtilizationModel::AvgSeries(const UtilizationParams& p,
                                                int64_t from_slot, int64_t n) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(std::max<int64_t>(n, 0)));
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(ReadingAt(p, from_slot + i).avg_cpu);
  }
  return out;
}

UtilizationModel::Summary UtilizationModel::Summarize(const VmRecord& vm,
                                                      int64_t max_samples) {
  int64_t first = SlotIndex(vm.created);
  int64_t last = SlotIndex(vm.deleted);
  int64_t slots = std::max<int64_t>(last - first, 1);
  int64_t stride = std::max<int64_t>(1, slots / max_samples);

  OnlineStats avg_stats;
  thread_local std::vector<double> maxes;
  maxes.clear();
  for (int64_t s = first; s < first + slots; s += stride) {
    const AvgMax r = AvgAndMaxAt(vm.util, SlotHashes(s));
    avg_stats.Add(r.avg);
    maxes.push_back(r.max);
  }
  return Summary{avg_stats.mean(), PercentileSelect(maxes, 95.0)};
}

}  // namespace rc::trace
