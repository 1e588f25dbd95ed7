#include "src/trace/utilization.h"

#include <cmath>
#include <cstring>

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

TEST(UtilizationModelTest, MaxCpuAtMatchesReadingAtBitForBit) {
  // Random params across the shapes the generator produces, plus the edge
  // cases: diurnal off, noise at its 0.005 floor, and params whose avg
  // clamps at 0 or whose max clamps at 1.
  Rng rng(2024);
  int64_t clamped_low = 0, clamped_high = 0;
  for (int trial = 0; trial < 400; ++trial) {
    UtilizationParams p;
    p.seed = rng.NextU64();
    p.base = rng.Uniform(-0.05, 1.0);
    p.diurnal_amp = trial % 2 == 0 ? 0.0 : rng.Uniform(0.12, 0.5);
    p.diurnal_phase_h = rng.Uniform(10.0, 18.0);
    p.noise_amp = trial % 3 == 0 ? 0.005 : rng.Uniform(0.005, 0.3);
    p.burst_amp = trial % 5 == 0 ? 1.0 : rng.Uniform(0.01, 1.0);
    for (int k = 0; k < 200; ++k) {
      const int64_t slot = rng.UniformInt(-kSlotsPerDay, 120 * kSlotsPerDay);
      const CpuReading r = UtilizationModel::ReadingAt(p, slot);
      const double max = UtilizationModel::MaxCpuAt(p, slot);
      ASSERT_EQ(std::memcmp(&max, &r.max_cpu, sizeof max), 0)
          << "trial " << trial << " slot " << slot << ": " << max << " vs " << r.max_cpu;
      clamped_low += r.avg_cpu == 0.0;
      clamped_high += r.max_cpu == 1.0;
    }
  }
  EXPECT_GT(clamped_low, 0);
  EXPECT_GT(clamped_high, 0);
}

}  // namespace
}  // namespace rc::trace
