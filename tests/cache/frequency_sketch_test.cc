#include "src/cache/frequency_sketch.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/hashing.h"

namespace rc::cache {
namespace {

TEST(FrequencySketchTest, UninitializedIsInert) {
  FrequencySketch sketch;
  EXPECT_FALSE(sketch.initialized());
  sketch.Observe(42);  // no crash
  EXPECT_EQ(sketch.Frequency(42), 0);
  EXPECT_FALSE(sketch.ShouldReset());
}

TEST(FrequencySketchTest, FirstAccessOnlySetsDoorkeeper) {
  FrequencySketch sketch;
  sketch.Init(128);
  const uint64_t h = HashU64(7);
  EXPECT_EQ(sketch.Frequency(h), 0);
  sketch.Observe(h);
  // One observation: the doorkeeper remembers it but the count-min rows do
  // not — estimated frequency 1 (0 from the rows + 1 doorkeeper credit).
  EXPECT_EQ(sketch.Frequency(h), 1);
}

TEST(FrequencySketchTest, FrequencyTracksRepeatedAccess) {
  FrequencySketch sketch;
  sketch.Init(128);
  const uint64_t hot = HashU64(1);
  const uint64_t cold = HashU64(2);
  for (int i = 0; i < 10; ++i) sketch.Observe(hot);
  sketch.Observe(cold);
  EXPECT_GT(sketch.Frequency(hot), sketch.Frequency(cold));
  EXPECT_GE(sketch.Frequency(hot), 8);  // 10 observes, first only sets door
}

TEST(FrequencySketchTest, SaturatesAtSixteen) {
  FrequencySketch sketch;
  sketch.Init(128);
  const uint64_t h = HashU64(3);
  for (int i = 0; i < 1000; ++i) sketch.Observe(h);
  EXPECT_EQ(sketch.Frequency(h), 16);  // 15 nibble max + doorkeeper credit
}

TEST(FrequencySketchTest, ResetHalvesCounts) {
  FrequencySketch sketch;
  sketch.Init(16);
  const uint64_t h = HashU64(4);
  for (int i = 0; i < 13; ++i) sketch.Observe(h);
  const int before = sketch.Frequency(h);
  ASSERT_GE(before, 10);
  sketch.Reset();
  EXPECT_EQ(sketch.resets(), 1u);
  // Doorkeeper cleared (-1) and nibbles halved.
  const int after = sketch.Frequency(h);
  EXPECT_LE(after, before / 2 + 1);
  EXPECT_GE(after, before / 2 - 1);
}

TEST(FrequencySketchTest, ShouldResetAfterSampleWindow) {
  FrequencySketch sketch;
  sketch.Init(16);  // sample size = 160 additions
  // Repeated keys add to the counters; spread over enough distinct keys that
  // saturation does not stall the addition count.
  uint64_t additions_budget = 0;
  for (uint64_t k = 0; !sketch.ShouldReset() && additions_budget < 100'000;
       ++k, ++additions_budget) {
    sketch.Observe(HashU64(k % 64));
  }
  EXPECT_TRUE(sketch.ShouldReset());
  sketch.Reset();
  EXPECT_FALSE(sketch.ShouldReset());  // additions restart at half the window
}

TEST(FrequencySketchTest, ConcurrentObserveIsSafeAndRoughlyAccurate) {
  FrequencySketch sketch;
  sketch.Init(1024);
  const uint64_t hot = HashU64(99);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&sketch, hot, t] {
      for (int i = 0; i < 5000; ++i) {
        sketch.Observe(hot);
        sketch.Observe(HashU64(1000 + t * 5000 + i));  // one-shot noise
      }
    });
  }
  for (auto& th : threads) th.join();
  // The hot key saw 20k accesses; the sketch is lossy under contention but
  // must still report it saturated (or near), far above any one-shot key.
  EXPECT_GE(sketch.Frequency(hot), 14);
}

TEST(FrequencySketchTest, InheritCarriesEstimatesIntoALargerSketch) {
  // A growing cache table replaces its sketch; the live keys' estimates
  // (doorkeeper credit and count-min floor) must survive the move.
  FrequencySketch small;
  small.Init(32);
  const uint64_t hot = HashU64(1);
  const uint64_t once = HashU64(2);
  for (int i = 0; i < 6; ++i) small.Observe(hot);
  small.Observe(once);
  FrequencySketch large;
  large.Init(1024);
  const std::vector<uint64_t> live = {hot, once};
  large.Inherit(small, live);
  EXPECT_EQ(large.Frequency(hot), small.Frequency(hot));
  EXPECT_EQ(large.Frequency(once), 1);  // doorkeeper credit only
  EXPECT_EQ(large.Frequency(HashU64(3)), 0);
  EXPECT_GT(large.bytes(), small.bytes());
}

}  // namespace
}  // namespace rc::cache
