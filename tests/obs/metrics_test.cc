#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

namespace rc::obs {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAddValue) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
}

TEST(CounterTest, ConcurrentHammeringIsExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, BucketBoundsAreLogSpaced) {
  Histogram h;
  ASSERT_EQ(h.bounds().size(), Histogram::kFiniteBuckets);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 0.1);
  // Eight buckets per decade, each 10^(1/8) wider than the last.
  EXPECT_NEAR(h.bounds()[8], 1.0, 1e-12);
  EXPECT_NEAR(h.bounds()[16], 10.0, 1e-11);
  EXPECT_NEAR(h.bounds()[64], 1e7, 1e-3);
  for (size_t i = 1; i < h.bounds().size(); ++i) {
    EXPECT_NEAR(h.bounds()[i] / h.bounds()[i - 1], std::pow(10.0, 1.0 / 8.0), 1e-12) << i;
  }
}

TEST(HistogramTest, RecordPlacesValuesInExpectedBuckets) {
  Histogram h;
  h.Record(0.05);  // at/below the first bound -> bucket 0
  h.Record(-3.0);  // negative -> bucket 0
  h.Record(5.0);   // (4.217, 5.623] -> bucket 14
  h.Record(10.0);  // boundary lands in its own bucket (16), not the next
  h.Record(2e7);   // above 10 s -> overflow
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 5u);
  ASSERT_EQ(snap.buckets.size(), Histogram::kFiniteBuckets + 1);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[14], 1u);
  EXPECT_EQ(snap.buckets[15], 0u);
  EXPECT_EQ(snap.buckets[16], 1u);
  EXPECT_EQ(snap.buckets[17], 0u);
  EXPECT_EQ(snap.buckets[Histogram::kFiniteBuckets], 1u);
  EXPECT_NEAR(snap.sum, 0.05 - 3.0 + 5.0 + 10.0 + 2e7, 1e-6);
  EXPECT_NEAR(snap.Mean(), snap.sum / 5.0, 1e-12);
}

TEST(HistogramTest, ConcurrentRecordKeepsExactCount) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>(1 + (t * kPerThread + i) % 1000));
      }
    });
  }
  for (auto& t : threads) t.join();
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

// The quantile must come out within one bucket width of the exact sorted
// oracle: at the default 8 buckets per decade the reported upper bound is at
// most 10^(1/8) = 1.334x the true sample and never below it.
TEST(HistogramTest, QuantilesMatchSortedOracleWithinOneBucket) {
  Histogram h;
  std::vector<double> samples;
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) / static_cast<double>(1ULL << 53);
  };
  constexpr int kSamples = 20000;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    double v = std::pow(10.0, next() * 6.0);  // log-uniform in [1, 1e6]
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  auto snap = h.TakeSnapshot();
  const double ratio = std::pow(10.0, 1.0 / 8.0);
  for (double q : {0.50, 0.95, 0.99, 0.999}) {
    uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(kSamples))));
    double oracle = samples[rank - 1];
    double reported = snap.Quantile(q);
    EXPECT_GE(reported, oracle * (1.0 - 1e-9)) << "q=" << q;
    EXPECT_LE(reported, oracle * ratio * (1.0 + 1e-9)) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileOnEmptySnapshotIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.TakeSnapshot().Quantile(0.5), 0.0);
}

TEST(RegistryTest, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("rc_test_total", {{"k", "v"}}, "help");
  Counter& b = reg.GetCounter("rc_test_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  Counter& c = reg.GetCounter("rc_test_total", {{"k", "other"}});
  EXPECT_NE(&a, &c);
  Counter& d = reg.GetCounter("rc_test_total");
  EXPECT_NE(&a, &d);
}

TEST(RegistryTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("rc_test_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.GetCounter("rc_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(RegistryTest, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.GetCounter("rc_test_metric");
  EXPECT_THROW(reg.GetGauge("rc_test_metric"), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("rc_test_metric"), std::logic_error);
}

TEST(RegistryTest, CollectReturnsSortedSamples) {
  MetricsRegistry reg;
  reg.GetCounter("rc_b_total").Increment(2);
  reg.GetCounter("rc_a_total").Increment(1);
  reg.GetGauge("rc_g").Set(7.0);
  reg.GetHistogram("rc_h_us").Record(3.0);
  RegistrySnapshot snap = reg.Collect();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].info.name, "rc_a_total");
  EXPECT_EQ(snap.counters[0].value, 1u);
  EXPECT_EQ(snap.counters[1].info.name, "rc_b_total");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 7.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.count, 1u);
}

TEST(RegistryTest, ConcurrentGetOrCreateAndWrite) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        reg.GetCounter("rc_shared_total").Increment();
        reg.GetHistogram("rc_shared_us").Record(1.0 + i % 100);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("rc_shared_total").Value(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.GetHistogram("rc_shared_us").TakeSnapshot().count,
            static_cast<uint64_t>(kThreads) * kIters);
}

// --- sliding-window view (epoch-ring rotation, virtualized time) ---
// The window is 6 epochs of 10 s; a ring of 7 slots.

constexpr uint64_t kSec = 1'000'000'000ull;

TEST(HistogramWindowTest, WindowSeesRecentAndForgetsOld) {
  Histogram h;
  const uint64_t t0 = 1000 * kSec;  // arbitrary virtual origin, epoch-aligned
  h.RecordAt(10.0, t0);
  h.RecordAt(20.0, t0 + 5 * kSec);
  EXPECT_EQ(h.TakeWindowSnapshot(t0 + 6 * kSec).count, 2u);
  EXPECT_EQ(h.TakeWindowSnapshot(t0 + 59 * kSec).count, 2u);
  // One window span later both records have aged out...
  EXPECT_EQ(h.TakeWindowSnapshot(t0 + 60 * kSec).count, 0u);
  // ...but the lifetime view keeps them forever.
  EXPECT_EQ(h.TakeSnapshot().count, 2u);
}

// A load change shows up in window quantiles within one window span while
// the lifetime quantile still remembers the old regime — the property the
// /metrics _window_p99 series exists for.
TEST(HistogramWindowTest, StepLoadConvergesWithinOneWindow) {
  Histogram h;
  uint64_t now = 500 * kSec;
  // Regime A: 1000 fast samples (~10us) spread over 30s.
  for (int i = 0; i < 1000; ++i) {
    h.RecordAt(10.0, now + static_cast<uint64_t>(i) * 30'000'000ull);
  }
  now += 30 * kSec;
  Histogram::Snapshot before = h.TakeWindowSnapshot(now);
  EXPECT_LE(before.Quantile(0.99), 20.0);
  // Regime B: latency jumps 100x. One full window later the window p99
  // reflects only the new regime.
  now += 60 * kSec;  // old samples age out entirely
  for (int i = 0; i < 1000; ++i) {
    h.RecordAt(1000.0, now + static_cast<uint64_t>(i) * 30'000'000ull);
  }
  now += 30 * kSec;
  Histogram::Snapshot after = h.TakeWindowSnapshot(now);
  EXPECT_EQ(after.count, 1000u);
  EXPECT_GE(after.Quantile(0.99), 1000.0);
  EXPECT_LE(after.Quantile(0.99), 1500.0);
  // Lifetime stays monotone and cumulative across both regimes.
  Histogram::Snapshot life = h.TakeSnapshot();
  EXPECT_EQ(life.count, 2000u);
  EXPECT_LE(life.Quantile(0.5), 20.0);  // half the samples are still fast
}

// Ring reuse: epochs far enough apart land in the same ring slot; the CAS
// claim must zero the stale contents rather than accumulate them.
TEST(HistogramWindowTest, SlotReclaimZeroesStaleEpoch) {
  Histogram h;
  const uint64_t t0 = 100 * kSec;
  for (int i = 0; i < 100; ++i) h.RecordAt(1.0, t0);
  // Same slot (7 epochs later, the ring size).
  const uint64_t t1 = t0 + 70 * kSec;
  h.RecordAt(2.0, t1);
  Histogram::Snapshot w = h.TakeWindowSnapshot(t1);
  EXPECT_EQ(w.count, 1u);  // the 100 stale samples did not leak in
  EXPECT_EQ(h.TakeSnapshot().count, 101u);
}

TEST(HistogramWindowTest, ConcurrentRotationNeverLosesLifetimeSamples) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  // Each thread's virtual clock advances 100ms per sample, so every thread
  // crosses a 10s epoch every 100 samples: the threads race to claim and
  // zero slots, and laggards write into slots others already moved past.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.RecordAt(3.0, 1000 * kSec + static_cast<uint64_t>(i) * 100'000'000ull);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Window counts may drop in-flight samples during a claim race; lifetime
  // counts must be exact.
  EXPECT_EQ(h.TakeSnapshot().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_LE(h.TakeWindowSnapshot(1000 * kSec + kPerThread * 100'000'000ull).count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace rc::obs
