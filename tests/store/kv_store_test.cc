#include "src/store/kv_store.h"

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>

#include <gtest/gtest.h>

#include "src/obs/trace_context.h"

namespace rc::store {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) { return {b}; }

TEST(KvStoreTest, PutGetVersioning) {
  KvStore store;
  EXPECT_EQ(store.Put("k", Bytes({1})), 1u);
  EXPECT_EQ(store.Put("k", Bytes({2})), 2u);
  auto blob = store.Get("k");
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(blob->version, 2u);
  EXPECT_EQ(blob->data, Bytes({2}));
}

TEST(KvStoreTest, MissingKey) {
  KvStore store;
  EXPECT_FALSE(store.Get("missing").has_value());
}

TEST(KvStoreTest, ListKeysByPrefix) {
  KvStore store;
  store.Put("model/a", Bytes({1}));
  store.Put("model/b", Bytes({1}));
  store.Put("spec/a", Bytes({1}));
  EXPECT_EQ(store.ListKeys("model/").size(), 2u);
  EXPECT_EQ(store.ListKeys("").size(), 3u);
  EXPECT_TRUE(store.ListKeys("zzz").empty());
  EXPECT_EQ(store.key_count(), 3u);
}

TEST(KvStoreTest, OutageHidesData) {
  KvStore store;
  store.Put("k", Bytes({1}));
  store.SetAvailable(false);
  EXPECT_FALSE(store.available());
  EXPECT_FALSE(store.Get("k").has_value());
  EXPECT_TRUE(store.ListKeys("").empty());
  store.SetAvailable(true);
  EXPECT_TRUE(store.Get("k").has_value());
}

// rc_store_get_latency_us is always on: one sample per TryGet whatever its
// outcome, with trace sampling off.
TEST(KvStoreTest, GetLatencyTakesOneSamplePerTryGet) {
  ASSERT_EQ(rc::obs::Tracer::Global().sample_every(), 0u);
  rc::obs::MetricsRegistry reg;
  KvStore::Options options;
  options.metrics = &reg;
  KvStore store(options);
  store.Put("k", Bytes({1}));
  EXPECT_TRUE(store.TryGet("k").ok());
  EXPECT_EQ(store.TryGet("missing").status, KvStore::GetStatus::kNotFound);
  store.SetAvailable(false);
  EXPECT_EQ(store.TryGet("k").status, KvStore::GetStatus::kUnavailable);
  EXPECT_EQ(reg.GetHistogram("rc_store_get_latency_us").TakeSnapshot().count, 3u);
}

TEST(KvStoreTest, PutFailsDuringOutage) {
  // Regression: Put used to ignore the availability switch — during a
  // simulated outage reads failed but writes silently succeeded and still
  // notified listeners.
  KvStore store;
  store.Put("k", Bytes({1}));
  int notifications = 0;
  store.Subscribe([&](const std::string&, const VersionedBlob&) { ++notifications; });
  store.SetAvailable(false);
  EXPECT_EQ(store.Put("k", Bytes({2})), 0u);      // dropped, no version bump
  EXPECT_EQ(store.Put("fresh", Bytes({3})), 0u);  // dropped, key not created
  EXPECT_EQ(notifications, 0);
  store.SetAvailable(true);
  auto blob = store.Get("k");
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(blob->version, 1u);
  EXPECT_EQ(blob->data, Bytes({1}));
  EXPECT_FALSE(store.Get("fresh").has_value());
  EXPECT_EQ(store.Put("k", Bytes({4})), 2u);  // writes resume after restore
  EXPECT_EQ(notifications, 1);
}

TEST(KvStoreTest, PushNotificationsOnPut) {
  KvStore store;
  std::vector<std::pair<std::string, uint64_t>> seen;
  int id = store.Subscribe([&](const std::string& key, const VersionedBlob& blob) {
    seen.emplace_back(key, blob.version);
  });
  store.Put("a", Bytes({1}));
  store.Put("a", Bytes({2}));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::string, uint64_t>{"a", 1}));
  EXPECT_EQ(seen[1], (std::pair<std::string, uint64_t>{"a", 2}));
  store.Unsubscribe(id);
  store.Put("a", Bytes({3}));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(KvStoreTest, ListenerMayCallBackIntoStore) {
  // Listeners run outside the store lock; re-entrant reads must not
  // deadlock (the RC client reads related keys when pushed).
  KvStore store;
  store.Put("other", Bytes({9}));
  std::optional<uint64_t> observed;
  store.Subscribe([&](const std::string& key, const VersionedBlob&) {
    if (key != "trigger") return;
    if (auto blob = store.Get("other")) observed = blob->version;
  });
  store.Put("trigger", Bytes({1}));
  EXPECT_EQ(observed, 1u);
}

TEST(KvStoreTest, ConcurrentPutsAndGets) {
  KvStore store;
  // Start the writer and reader together, and keep reading for a minimum
  // iteration count: the writer finishing all its Puts before the reader's
  // first loop iteration must not fail the test.
  std::latch start(2);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    start.arrive_and_wait();
    for (int i = 0; i < 2000; ++i) {
      store.Put("hot", std::vector<uint8_t>(16, static_cast<uint8_t>(i)));
    }
    stop = true;
  });
  constexpr int64_t kMinReads = 500;
  int64_t reads = 0;
  start.arrive_and_wait();
  while (!stop.load() || reads < kMinReads) {
    auto blob = store.Get("hot");
    if (blob) {
      ASSERT_EQ(blob->data.size(), 16u);
      ++reads;
    }
  }
  writer.join();
  auto hot = store.Get("hot");
  ASSERT_TRUE(hot.has_value());
  EXPECT_EQ(hot->version, 2000u);
  EXPECT_GE(reads, kMinReads);
}

TEST(KvStoreTest, UnsubscribeWaitsForInFlightListener) {
  KvStore store;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  int id = store.Subscribe([&](const std::string&, const VersionedBlob&) {
    entered = true;
    while (!release) std::this_thread::yield();
  });
  std::thread putter([&] { store.Put("k", Bytes({1})); });
  while (!entered) std::this_thread::yield();
  // The listener is now running inside Put; Unsubscribe must not return
  // until it does.
  std::atomic<bool> unsubscribed{false};
  std::thread unsub([&] {
    store.Unsubscribe(id);
    unsubscribed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unsubscribed.load());
  release = true;
  unsub.join();
  putter.join();
  EXPECT_TRUE(unsubscribed.load());
  // The listener is gone: further Puts must not re-enter it.
  store.Put("k", Bytes({2}));
}

TEST(LatencyProfileTest, MedianAndTail) {
  LatencyProfile profile;  // defaults: 2.9ms median, 5.6ms p99 (paper)
  Rng rng(5);
  std::vector<double> samples(20000);
  for (auto& s : samples) s = profile.SampleUs(rng);
  std::sort(samples.begin(), samples.end());
  double median = samples[samples.size() / 2];
  double p99 = samples[samples.size() * 99 / 100];
  EXPECT_NEAR(median, 2900.0, 150.0);
  EXPECT_NEAR(p99, 5600.0, 500.0);
}

TEST(KvStoreTest, SimulatedLatencySlowsAccess) {
  KvStore::Options options;
  options.simulate_latency = true;
  options.latency.median_us = 2000.0;
  options.latency.p99_us = 3000.0;
  KvStore store(options);
  store.Put("k", Bytes({1}));
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) store.Get("k");
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_GT(elapsed, 10 * 1000);  // >= ~10 x 2ms median, loosely
}

}  // namespace
}  // namespace rc::store
