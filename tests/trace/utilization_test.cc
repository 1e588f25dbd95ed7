#include "src/trace/utilization.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/stats.h"

namespace rc::trace {
namespace {

UtilizationParams Params(double base, double diurnal = 0.0, double burst = 0.2,
                         uint64_t seed = 99) {
  UtilizationParams p;
  p.seed = seed;
  p.base = base;
  p.diurnal_amp = diurnal;
  p.noise_amp = 0.02;
  p.burst_amp = burst;
  return p;
}

TEST(UtilizationModelTest, DeterministicRandomAccess) {
  UtilizationParams p = Params(0.3);
  CpuReading a = UtilizationModel::ReadingAt(p, 12345);
  CpuReading b = UtilizationModel::ReadingAt(p, 12345);
  EXPECT_EQ(a.avg_cpu, b.avg_cpu);
  EXPECT_EQ(a.max_cpu, b.max_cpu);
  EXPECT_EQ(a.min_cpu, b.min_cpu);
  // Order independence.
  UtilizationModel::ReadingAt(p, 1);
  CpuReading c = UtilizationModel::ReadingAt(p, 12345);
  EXPECT_EQ(a.avg_cpu, c.avg_cpu);
}

TEST(UtilizationModelTest, ReadingsOrderedAndBounded) {
  UtilizationParams p = Params(0.5, 0.2, 0.4);
  for (int64_t slot = 0; slot < 2000; ++slot) {
    CpuReading r = UtilizationModel::ReadingAt(p, slot);
    ASSERT_GE(r.min_cpu, 0.0);
    ASSERT_LE(r.min_cpu, r.avg_cpu);
    ASSERT_LE(r.avg_cpu, r.max_cpu);
    ASSERT_LE(r.max_cpu, 1.0);
  }
}

TEST(UtilizationModelTest, MeanTracksBase) {
  for (double base : {0.05, 0.2, 0.5, 0.8}) {
    UtilizationParams p = Params(base);
    OnlineStats stats;
    for (int64_t slot = 0; slot < kSlotsPerDay * 3; ++slot) {
      stats.Add(UtilizationModel::ReadingAt(p, slot).avg_cpu);
    }
    EXPECT_NEAR(stats.mean(), base, 0.01) << "base=" << base;
  }
}

TEST(UtilizationModelTest, DiurnalComponentRaisesMean) {
  UtilizationParams flat = Params(0.2);
  UtilizationParams diurnal = Params(0.2, 0.4);
  OnlineStats sf, sd;
  for (int64_t slot = 0; slot < kSlotsPerDay * 3; ++slot) {
    sf.Add(UtilizationModel::ReadingAt(flat, slot).avg_cpu);
    sd.Add(UtilizationModel::ReadingAt(diurnal, slot).avg_cpu);
  }
  // Mean of the diurnal term is amp/2.
  EXPECT_NEAR(sd.mean() - sf.mean(), 0.2, 0.02);
  EXPECT_GT(sd.variance(), sf.variance() * 5);
}

TEST(UtilizationModelTest, DiurnalPeaksAtPhase) {
  UtilizationParams p = Params(0.1, 0.5);
  p.diurnal_phase_h = 14.0;
  p.noise_amp = 0.0;
  // Slot at hour 14 of day 2 vs hour 2 of day 2.
  int64_t peak_slot = 2 * kSlotsPerDay + 14 * kSlotsPerHour;
  int64_t trough_slot = 2 * kSlotsPerDay + 2 * kSlotsPerHour;
  EXPECT_GT(UtilizationModel::ReadingAt(p, peak_slot).avg_cpu,
            UtilizationModel::ReadingAt(p, trough_slot).avg_cpu + 0.3);
}

TEST(UtilizationModelTest, BurstP95NearAmplitude) {
  UtilizationParams p = Params(0.1, 0.0, 0.5);
  p.noise_amp = 0.0;
  std::vector<double> headroom;
  for (int64_t slot = 0; slot < 5000; ++slot) {
    CpuReading r = UtilizationModel::ReadingAt(p, slot);
    headroom.push_back(r.max_cpu - r.avg_cpu);
  }
  double p95 = rc::Percentile(std::move(headroom), 95.0);
  EXPECT_NEAR(p95, 0.5 * 0.97, 0.02);
}

TEST(UtilizationModelTest, SummarizeMatchesBruteForce) {
  VmRecord vm;
  vm.util = Params(0.35, 0.0, 0.3);
  vm.created = 3 * kHour;
  vm.deleted = vm.created + 2 * kDay;
  auto summary = UtilizationModel::Summarize(vm, /*max_samples=*/1 << 20);

  OnlineStats avg;
  std::vector<double> maxes;
  for (int64_t s = SlotIndex(vm.created); s < SlotIndex(vm.deleted); ++s) {
    CpuReading r = UtilizationModel::ReadingAt(vm.util, s);
    avg.Add(r.avg_cpu);
    maxes.push_back(r.max_cpu);
  }
  EXPECT_NEAR(summary.avg_cpu, avg.mean(), 1e-9);
  EXPECT_NEAR(summary.p95_max_cpu, rc::Percentile(std::move(maxes), 95.0), 1e-9);
}

TEST(UtilizationModelTest, SummarizeSampledCloseToExact) {
  VmRecord vm;
  vm.util = Params(0.25, 0.1, 0.4, 1234);
  vm.created = 0;
  vm.deleted = 20 * kDay;
  auto exact = UtilizationModel::Summarize(vm, 1 << 20);
  auto sampled = UtilizationModel::Summarize(vm, 512);
  EXPECT_NEAR(sampled.avg_cpu, exact.avg_cpu, 0.02);
  EXPECT_NEAR(sampled.p95_max_cpu, exact.p95_max_cpu, 0.05);
}

TEST(UtilizationModelTest, ShortVmHasAtLeastOneSample) {
  VmRecord vm;
  vm.util = Params(0.4);
  vm.created = 100;
  vm.deleted = 130;  // 30 seconds
  auto summary = UtilizationModel::Summarize(vm);
  EXPECT_GT(summary.avg_cpu, 0.0);
  EXPECT_GE(summary.p95_max_cpu, summary.avg_cpu);
}

TEST(UtilizationModelTest, AvgSeriesMatchesReadings) {
  UtilizationParams p = Params(0.3, 0.2);
  auto series = UtilizationModel::AvgSeries(p, 100, 50);
  ASSERT_EQ(series.size(), 50u);
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(series[static_cast<size_t>(i)],
              UtilizationModel::ReadingAt(p, 100 + i).avg_cpu);
  }
}

TEST(UtilizationModelTest, HashNoiseUniformish) {
  OnlineStats stats;
  for (int64_t k = 0; k < 20000; ++k) stats.Add(UtilizationModel::HashNoise(7, k));
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
  EXPECT_GE(stats.min(), 0.0);
  EXPECT_LT(stats.max(), 1.0);
}

TEST(UtilizationModelTest, DistinctSeedsDecorrelated) {
  UtilizationParams a = Params(0.5, 0.0, 0.0, 1);
  UtilizationParams b = Params(0.5, 0.0, 0.0, 2);
  a.noise_amp = b.noise_amp = 0.2;
  double dot = 0.0;
  int64_t n = 5000;
  for (int64_t s = 0; s < n; ++s) {
    dot += (UtilizationModel::ReadingAt(a, s).avg_cpu - 0.5) *
           (UtilizationModel::ReadingAt(b, s).avg_cpu - 0.5);
  }
  EXPECT_NEAR(dot / static_cast<double>(n), 0.0, 0.002);
}

// Random params across the shapes the generator produces, plus the edge
// cases: diurnal off, noise at its 0.005 floor, and params whose avg clamps
// at 0 or whose max clamps at 1.
UtilizationParams RandomParams(Rng& rng, int trial) {
  UtilizationParams p;
  p.seed = rng.NextU64();
  p.base = rng.Uniform(-0.05, 1.0);
  p.diurnal_amp = trial % 2 == 0 ? 0.0 : rng.Uniform(0.12, 0.5);
  p.diurnal_phase_h = rng.Uniform(10.0, 18.0);
  p.noise_amp = trial % 3 == 0 ? 0.005 : rng.Uniform(0.005, 0.3);
  p.burst_amp = trial % 5 == 0 ? 1.0 : rng.Uniform(0.01, 1.0);
  return p;
}

// A slot drawn at random, or, every other draw, on or next to an hourly
// knot, where the value noise switches to the next pair of knots.
int64_t RandomSlot(Rng& rng, int k) {
  if (k % 2 == 0) return rng.UniformInt(-kSlotsPerDay, 120 * kSlotsPerDay);
  const int64_t knot = rng.UniformInt(-24, 120 * 24);
  const int64_t offsets[] = {-1, 0, 1, kSlotsPerHour - 1};
  return knot * kSlotsPerHour + offsets[rng.UniformInt(0, 3)];
}

// The reading as the model's header defines it, written out from HashNoise
// alone: each noise term hashes its own (seed, k) pair.
CpuReading OracleReading(const UtilizationParams& p, int64_t slot) {
  const double t_hours = static_cast<double>(slot) * static_cast<double>(kSlot) / kHour;
  double diurnal = 0.0;
  if (p.diurnal_amp > 0.0) {
    diurnal = p.diurnal_amp * 0.5 *
              (1.0 + std::cos(2.0 * std::numbers::pi * (t_hours - p.diurnal_phase_h) / 24.0));
  }
  const int64_t knot =
      slot >= 0 ? slot / kSlotsPerHour : (slot - kSlotsPerHour + 1) / kSlotsPerHour;
  const double frac = static_cast<double>(slot - knot * kSlotsPerHour) /
                      static_cast<double>(kSlotsPerHour);
  const double v0 = 2.0 * UtilizationModel::HashNoise(p.seed, knot) - 1.0;
  const double v1 = 2.0 * UtilizationModel::HashNoise(p.seed, knot + 1) - 1.0;
  const double smooth = p.noise_amp * (v0 + (v1 - v0) * frac);
  const double jitter =
      0.25 * p.noise_amp * (2.0 * UtilizationModel::HashNoise(p.seed ^ 0x5bd1e995, slot) - 1.0);
  const double avg = std::clamp(p.base + diurnal + smooth + jitter, 0.0, 1.0);
  const double u = UtilizationModel::HashNoise(p.seed ^ 0x9e3779b9, slot);
  const double max = std::clamp(avg + p.burst_amp * (1.0 - 0.35 * u * u), 0.0, 1.0);
  const double d = UtilizationModel::HashNoise(p.seed ^ 0x7f4a7c15, slot);
  const double min =
      std::min(avg, std::clamp(avg - 0.5 * (p.burst_amp * 0.3 + p.noise_amp) * d, 0.0, 1.0));
  return CpuReading{min, avg, max};
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(UtilizationModelTest, MaxCpuAtMatchesReadingAtBitForBit) {
  Rng rng(2024);
  int64_t clamped_low = 0, clamped_high = 0, diurnal = 0, on_knot = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const UtilizationParams p = RandomParams(rng, trial);
    for (int k = 0; k < 200; ++k) {
      const int64_t slot = RandomSlot(rng, k);
      const CpuReading r = UtilizationModel::ReadingAt(p, slot);
      const double max = UtilizationModel::MaxCpuAt(p, UtilizationModel::SlotHashes(slot));
      ASSERT_TRUE(SameBits(max, r.max_cpu))
          << "trial " << trial << " slot " << slot << ": " << max << " vs " << r.max_cpu;
      clamped_low += r.avg_cpu == 0.0;
      clamped_high += r.max_cpu == 1.0;
      diurnal += p.diurnal_amp > 0.0;
      on_knot += slot % kSlotsPerHour == 0;
    }
  }
  EXPECT_GT(clamped_low, 0);
  EXPECT_GT(clamped_high, 0);
  EXPECT_GT(diurnal, 0);
  EXPECT_GT(on_knot, 0);
}

TEST(UtilizationModelTest, SharedSlotHashesMatchReadingAtAcrossHourBoundaries) {
  // The simulator's shape: one SlotHashes per slot, read for many VMs, over
  // consecutive slots that cross hourly knots (and zero, where the knot
  // index rounds toward minus infinity).
  Rng rng(77);
  std::vector<UtilizationParams> vms;
  for (int trial = 0; trial < 64; ++trial) vms.push_back(RandomParams(rng, trial));
  for (int64_t slot = -2 * kSlotsPerHour - 1; slot <= 3 * kSlotsPerHour + 1; ++slot) {
    const UtilizationModel::SlotHashes hashes(slot);
    for (const UtilizationParams& p : vms) {
      ASSERT_TRUE(SameBits(UtilizationModel::MaxCpuAt(p, hashes),
                           UtilizationModel::ReadingAt(p, slot).max_cpu))
          << "slot " << slot;
    }
  }
}

TEST(UtilizationModelTest, ReadingAtMatchesHashNoiseOracle) {
  Rng rng(4096);
  for (int trial = 0; trial < 300; ++trial) {
    const UtilizationParams p = RandomParams(rng, trial);
    for (int k = 0; k < 100; ++k) {
      const int64_t slot = RandomSlot(rng, k);
      const CpuReading r = UtilizationModel::ReadingAt(p, slot);
      const CpuReading o = OracleReading(p, slot);
      ASSERT_TRUE(SameBits(r.min_cpu, o.min_cpu)) << "trial " << trial << " slot " << slot;
      ASSERT_TRUE(SameBits(r.avg_cpu, o.avg_cpu)) << "trial " << trial << " slot " << slot;
      ASSERT_TRUE(SameBits(r.max_cpu, o.max_cpu)) << "trial " << trial << " slot " << slot;
    }
  }
}

}  // namespace
}  // namespace rc::trace
