// Concurrency oracles for the hash-sharded KvStore (DESIGN.md "Admission-
// controlled caching & sharded store"): per-key version monotonicity and
// global uniqueness of the store-wide version counter, per-key Subscribe
// delivery ordering under concurrent cross-shard Puts, and Unsubscribe's
// in-flight drain under a Put storm. These are the suites check_tsan pins.
#include "src/store/kv_store.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace rc::store {
namespace {

TEST(KvStoreShardStressTest, VersionsAreGloballyUniqueAndPerKeyMonotonic) {
  KvStore store;
  constexpr int kThreads = 8;
  constexpr int kPutsPerThread = 400;
  const std::vector<std::string> keys = {"model/a", "model/b", "feat/1",
                                         "feat/2", "spec/x"};
  // Each thread records every (key, returned version) in order; writes to
  // one key serialize on its shard lock, so the versions a single thread
  // observes for a key must be strictly increasing.
  std::vector<std::vector<std::pair<int, uint64_t>>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].reserve(kPutsPerThread);
      for (int i = 0; i < kPutsPerThread; ++i) {
        const int ki = (t + i) % static_cast<int>(keys.size());
        const uint64_t v =
            store.Put(keys[ki], std::vector<uint8_t>(8, uint8_t(i)));
        ASSERT_NE(v, 0u);
        seen[t].emplace_back(ki, v);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<uint64_t> all_versions;
  std::map<int, uint64_t> max_version;
  for (int t = 0; t < kThreads; ++t) {
    std::map<int, uint64_t> last;  // per-key monotonic within a thread
    for (const auto& [ki, v] : seen[t]) {
      EXPECT_TRUE(all_versions.insert(v).second) << "version " << v
                                                 << " returned twice";
      auto it = last.find(ki);
      if (it != last.end()) {
        EXPECT_GT(v, it->second) << "non-monotonic version for " << keys[ki];
      }
      last[ki] = v;
      max_version[ki] = std::max(max_version[ki], v);
    }
  }
  EXPECT_EQ(all_versions.size(), size_t(kThreads) * kPutsPerThread);
  // The stored version for each key is the largest one any writer was given.
  for (const auto& [ki, v] : max_version) {
    auto blob = store.Get(keys[ki]);
    ASSERT_TRUE(blob.has_value()) << keys[ki];
    EXPECT_EQ(blob->version, v);
  }
}

TEST(KvStoreShardStressTest, ListenerSeesEachKeysVersionsInOrder) {
  KvStore store;
  std::mutex seen_mu;
  std::map<std::string, std::vector<uint64_t>> seen;
  const int id = store.Subscribe(
      [&](const std::string& key, const VersionedBlob& blob) {
        std::lock_guard<std::mutex> lock(seen_mu);
        seen[key].push_back(blob.version);
      });
  constexpr int kThreads = 6;
  constexpr int kPutsPerThread = 300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPutsPerThread; ++i) {
        // Every thread hammers every key, so same-key Puts race across
        // threads and shards stay busy concurrently.
        store.Put("key/" + std::to_string((t + i) % 4),
                  std::vector<uint8_t>(4, uint8_t(t)));
      }
    });
  }
  for (auto& th : threads) th.join();
  store.Unsubscribe(id);

  size_t total = 0;
  for (const auto& [key, versions] : seen) {
    total += versions.size();
    for (size_t i = 1; i < versions.size(); ++i) {
      EXPECT_GT(versions[i], versions[i - 1])
          << key << " delivered out of order at notification " << i;
    }
  }
  EXPECT_EQ(total, size_t(kThreads) * kPutsPerThread);
}

TEST(KvStoreShardStressTest, UnsubscribeDrainsUnderPutStorm) {
  KvStore store;
  std::atomic<bool> stop{false};
  std::vector<std::thread> putters;
  putters.reserve(4);
  for (int t = 0; t < 4; ++t) {
    putters.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        store.Put("storm/" + std::to_string((t * 31 + i++) % 16),
                  std::vector<uint8_t>(4, 1));
      }
    });
  }
  // Repeatedly subscribe a listener that reads shared state, then
  // unsubscribe mid-storm: after Unsubscribe returns, the state may be
  // "destroyed" (flagged) and any further invocation is a use-after-free.
  for (int round = 0; round < 50; ++round) {
    auto destroyed = std::make_shared<std::atomic<bool>>(false);
    std::atomic<int> invocations{0};
    const int id = store.Subscribe(
        [destroyed, &invocations](const std::string&, const VersionedBlob&) {
          EXPECT_FALSE(destroyed->load()) << "listener ran after Unsubscribe";
          invocations.fetch_add(1, std::memory_order_relaxed);
        });
    while (invocations.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    store.Unsubscribe(id);
    destroyed->store(true);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : putters) th.join();
}

TEST(KvStoreShardStressTest, SingleShardOptionPreservesBehavior) {
  // shards = 1 reproduces the old global-mutex layout (the bench control
  // arm); the public semantics must be identical.
  KvStore::Options options;
  options.shards = 1;
  KvStore store(options);
  EXPECT_EQ(store.shard_count(), 1u);
  EXPECT_EQ(store.Put("a", {1}), 1u);
  EXPECT_EQ(store.Put("a", {2}), 2u);
  EXPECT_EQ(store.Put("b", {3}), 3u);  // global counter: unique across keys
  auto a = store.Get("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->version, 2u);
  EXPECT_EQ(store.key_count(), 2u);
}

TEST(KvStoreShardStressTest, ListKeysSortedAcrossShards) {
  KvStore store;
  EXPECT_GT(store.shard_count(), 1u);
  const std::vector<std::string> keys = {"m/delta", "m/alpha", "x/zulu",
                                         "m/bravo", "a/first"};
  for (const auto& k : keys) store.Put(k, {1});
  const std::vector<std::string> listed = store.ListKeys("");
  ASSERT_EQ(listed.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(listed.begin(), listed.end()));
  EXPECT_EQ(store.ListKeys("m/").size(), 3u);
}

TEST(KvStoreShardStressTest, OutageDropsWritesOnEveryShard) {
  KvStore store;
  store.Put("a", {1});
  store.SetAvailable(false);
  // Keys hashing to different shards must all observe the outage.
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(store.Put("out/" + std::to_string(i), {1}), 0u);
  }
  store.SetAvailable(true);
  EXPECT_EQ(store.key_count(), 1u);
}

}  // namespace
}  // namespace rc::store
