#include "src/cache/sharded_cache.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/hashing.h"
#include "src/obs/metrics.h"

namespace rc::cache {
namespace {

CacheOptions SmallOptions(size_t capacity, size_t shards = 1) {
  CacheOptions options;
  options.capacity = capacity;
  options.shards = shards;
  return options;
}

uint64_t W0(uint64_t key) { return key * 3 + 1; }
uint64_t W1(uint64_t key) { return key ^ 0xdeadbeefcafef00dULL; }

void InsertKey(Word2Cache& cache, uint64_t key) {
  const uint64_t value[2] = {W0(key), W1(key)};
  cache.Insert(key, value, cache.epoch());
}

TEST(Word2CacheTest, InsertLookupRoundTrip) {
  Word2Cache cache(SmallOptions(64));
  uint64_t out[2];
  EXPECT_FALSE(cache.Lookup(7, out));
  InsertKey(cache, 7);
  ASSERT_TRUE(cache.Lookup(7, out));
  EXPECT_EQ(out[0], W0(7));
  EXPECT_EQ(out[1], W1(7));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Word2CacheTest, KeyZeroIsAValidKey) {
  Word2Cache cache(SmallOptions(64));
  InsertKey(cache, 0);
  uint64_t out[2];
  ASSERT_TRUE(cache.Lookup(0, out));
  EXPECT_EQ(out[0], W0(0));
}

TEST(Word2CacheTest, UpdateInPlaceReplacesValue) {
  Word2Cache cache(SmallOptions(64));
  InsertKey(cache, 5);
  const uint64_t updated[2] = {111, 222};
  cache.Insert(5, updated, cache.epoch());
  uint64_t out[2];
  ASSERT_TRUE(cache.Lookup(5, out));
  EXPECT_EQ(out[0], 111u);
  EXPECT_EQ(out[1], 222u);
  EXPECT_EQ(cache.size(), 1u);  // update, not a second entry
}

TEST(Word2CacheTest, CapacityZeroDisablesCache) {
  Word2Cache cache(SmallOptions(0));
  InsertKey(cache, 1);
  uint64_t out[2];
  EXPECT_FALSE(cache.Lookup(1, out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Word2CacheTest, OverflowEvictsOneEntryNotAShard) {
  // Regression for the old flush-on-overflow cache: crossing the capacity
  // boundary must evict exactly one entry per insert, so the entry count
  // stays pinned at capacity instead of sawtoothing to zero.
  Word2Cache cache(SmallOptions(64));
  for (uint64_t k = 0; k < 200; ++k) {
    InsertKey(cache, k);
    EXPECT_LE(cache.size(), 64u);
    if (k >= 64) EXPECT_EQ(cache.size(), 64u) << "insert " << k;
  }
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions_window + stats.evictions_probation +
                stats.evictions_protected,
            200 - 64u);
}

TEST(Word2CacheTest, SteadyStateHitRateSurvivesOverflow) {
  // The old cache flushed a whole shard at the capacity boundary, cratering
  // the hit rate right when the cache was most useful. Per-insert eviction +
  // admission must keep a promoted working set's hit rate within 5 points
  // across a sustained overflow event.
  Word2Cache cache(SmallOptions(1024));
  const uint64_t kHot = 256;
  // Warm the hot set: several rounds so every key is re-accessed, promoted
  // to the protected segment, and known to the frequency sketch.
  for (int round = 0; round < 8; ++round) {
    for (uint64_t k = 0; k < kHot; ++k) {
      uint64_t out[2];
      if (!cache.Lookup(k, out)) InsertKey(cache, k);
    }
  }
  auto hot_hit_rate = [&] {
    int hits = 0;
    for (uint64_t k = 0; k < kHot; ++k) {
      uint64_t out[2];
      if (cache.Lookup(k, out)) {
        ++hits;
      } else {
        InsertKey(cache, k);
      }
    }
    return static_cast<double>(hits) / static_cast<double>(kHot);
  };
  const double before = hot_hit_rate();
  EXPECT_GE(before, 0.99);
  // Overflow storm: 4x capacity of one-shot keys forced through the cache.
  for (uint64_t k = 0; k < 4096; ++k) InsertKey(cache, 1'000'000 + k);
  const double after = hot_hit_rate();
  EXPECT_GE(after, before - 0.05)
      << "hit rate cratered across the overflow event";
}

TEST(Word2CacheTest, InvalidateClearsEntriesAndBumpsEpoch) {
  Word2Cache cache(SmallOptions(64));
  InsertKey(cache, 1);
  InsertKey(cache, 2);
  const uint64_t epoch_before = cache.epoch();
  cache.Invalidate();
  EXPECT_EQ(cache.epoch(), epoch_before + 1);
  EXPECT_EQ(cache.size(), 0u);
  uint64_t out[2];
  EXPECT_FALSE(cache.Lookup(1, out));
  EXPECT_FALSE(cache.Lookup(2, out));
}

TEST(Word2CacheTest, InsertWithStaleEpochTokenIsDropped) {
  Word2Cache cache(SmallOptions(64));
  const uint64_t stale = cache.epoch();
  cache.Invalidate();
  const uint64_t value[2] = {1, 2};
  cache.Insert(9, value, stale);  // computed against pre-invalidation state
  uint64_t out[2];
  EXPECT_FALSE(cache.Lookup(9, out));
  cache.Insert(9, value, cache.epoch());  // fresh token is accepted
  EXPECT_TRUE(cache.Lookup(9, out));
}

TEST(Word2CacheTest, HitPathTakesZeroShardLocks) {
  Word2Cache cache(SmallOptions(1024, 16));
  for (uint64_t k = 0; k < 100; ++k) InsertKey(cache, k);
  const uint64_t locks_before = ShardLockAcquisitions();
  uint64_t out[2];
  for (int round = 0; round < 100; ++round) {
    for (uint64_t k = 0; k < 100; ++k) {
      ASSERT_TRUE(cache.Lookup(k, out));
    }
  }
  EXPECT_EQ(ShardLockAcquisitions(), locks_before)
      << "the lock-free probe acquired a shard mutex";
  // Misses are lock-free too.
  EXPECT_FALSE(cache.Lookup(1 << 30, out));
  EXPECT_EQ(ShardLockAcquisitions(), locks_before);
  // The hook itself counts: an insert takes its shard's lock.
  InsertKey(cache, 1 << 30);
  EXPECT_EQ(ShardLockAcquisitions(), locks_before + 1);
}

TEST(Word2CacheTest, TombstoneChurnTriggersRebuildAndKeepsValues) {
  // Keep evicting in a tiny single-shard cache until tombstones force an
  // in-place rebuild; every hit must still return the exact stored words.
  Word2Cache cache(SmallOptions(32));
  uint64_t rebuilds = 0;
  for (uint64_t k = 0; k < 5000; ++k) {
    InsertKey(cache, k);
    uint64_t out[2];
    if (cache.Lookup(k, out)) {
      ASSERT_EQ(out[0], W0(k));
      ASSERT_EQ(out[1], W1(k));
    }
    rebuilds = cache.Stats().rebuilds;
  }
  EXPECT_GE(rebuilds, 1u);
  EXPECT_LE(cache.size(), 32u);
}

TEST(Word2CacheTest, ConcurrentReadersNeverSeeTornValues) {
  // The seqlock pair-consistency oracle: every stored value is a (key,
  // derived) pair, so any torn read surfaces as a mismatched pair. Writers
  // churn inserts and periodic invalidations while readers hammer lookups.
  Word2Cache cache(SmallOptions(256, 4));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t out[2];
      uint64_t k = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        k = (k + 7) % 512;
        if (cache.Lookup(k, out)) {
          if (out[0] != W0(k) || out[1] != W1(k)) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < 200; ++round) {
      for (uint64_t k = 0; k < 512; ++k) InsertKey(cache, k);
      if (round % 50 == 49) cache.Invalidate();
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(torn.load(), 0u) << "a reader observed a torn or stale-keyed value";
}

TEST(Word2CacheTest, EvictedSlotsNeverAnswerForAnotherKey) {
  // Key 0 is never inserted; every other key shares its 7-bit tag, so a
  // reader probing for 0 matches the tag of each slot the writer evicts or
  // invalidates. An evicted slot must not turn into an entry for key 0.
  const uint64_t tag0 = rc::HashU64(0) >> 57;
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < 64; ++k) {
    if ((rc::HashU64(k) >> 57) == tag0) keys.push_back(k);
  }
  Word2Cache cache(SmallOptions(8));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> false_hits{0};
  std::thread reader([&] {
    uint64_t out[2];
    while (!stop.load(std::memory_order_relaxed)) {
      if (cache.Lookup(0, out)) false_hits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int round = 0; round < 5000; ++round) {
    for (uint64_t k : keys) InsertKey(cache, k);
    if (round % 64 == 63) cache.Invalidate();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(false_hits.load(), 0u) << "a never-inserted key was served";
}

TEST(Word2CacheTest, ReaderRecencyReachesTheNextInsert) {
  // Plain LRU, one shard at capacity: key 0 is the LRU head. A hit from
  // another thread goes through that thread's read stripe, and the next
  // insert drains it before choosing a victim — so key 0 survives and the
  // next-oldest key is evicted instead.
  CacheOptions options = SmallOptions(64);
  options.admission = false;
  Word2Cache cache(options);
  for (uint64_t k = 0; k < 64; ++k) InsertKey(cache, k);
  std::thread reader([&] {
    uint64_t out[2];
    EXPECT_TRUE(cache.Lookup(0, out));
  });
  reader.join();
  InsertKey(cache, 1000);
  uint64_t out[2];
  EXPECT_TRUE(cache.Lookup(0, out)) << "the reader's hit did not refresh key 0";
  EXPECT_FALSE(cache.Lookup(1, out)) << "the next LRU key should be the victim";
  EXPECT_TRUE(cache.Lookup(1000, out));
  EXPECT_EQ(cache.size(), 64u);
}

TEST(Word2CacheTest, GrowthUnderConcurrentReadersKeepsEveryValue) {
  // More reader threads than read stripes, so stripes are shared, while one
  // writer grows a single shard from its first 64-slot table to capacity.
  // A reader must never see a torn or wrong-key value, and after each
  // doubling every key inserted so far must still be retrievable.
  constexpr uint64_t kCapacity = 4096;
  constexpr int kReaders = static_cast<int>(rc::obs::kShards) + 4;
  Word2Cache cache(SmallOptions(kCapacity));
  std::atomic<uint64_t> inserted{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t out[2];
      uint64_t k = static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t n = inserted.load(std::memory_order_acquire);
        k = (k * 6364136223846793005ULL + 1442695040888963407ULL);
        const uint64_t key = (k >> 33) % (n + 1);
        if (cache.Lookup(key, out) &&
            (out[0] != W0(key) || out[1] != W1(key))) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  uint64_t bytes = cache.Stats().table_bytes;
  int doublings = 0;
  for (uint64_t k = 0; k < kCapacity; ++k) {
    InsertKey(cache, k);
    inserted.store(k + 1, std::memory_order_release);
    if (cache.Stats().table_bytes == bytes) continue;
    bytes = cache.Stats().table_bytes;
    if (k > 0) ++doublings;
    for (uint64_t j = 0; j <= k; ++j) {
      uint64_t out[2];
      ASSERT_TRUE(cache.Lookup(j, out)) << "key " << j << " lost at insert " << k;
      ASSERT_EQ(out[0], W0(j));
      ASSERT_EQ(out[1], W1(j));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  EXPECT_EQ(wrong.load(), 0u) << "a reader saw a torn or wrong-key value";
  EXPECT_EQ(doublings, 7) << "64 -> 8192 slots is seven doublings";
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_EQ(cache.Stats().evictions_window, 0u);
}

TEST(Word2CacheTest, TableBytesFollowLiveEntries) {
  // A client-sized cache (capacity 2^20, 16 shards) holding a few thousand
  // keys must not pay for full-capacity tables.
  rc::obs::MetricsRegistry registry;
  CacheOptions options;
  options.capacity = 1 << 20;
  options.metrics = &registry;
  Word2Cache cache(options);
  EXPECT_EQ(cache.Stats().table_bytes, 0u);
  for (uint64_t k = 0; k < 2000; ++k) InsertKey(cache, k);
  const uint64_t bytes = cache.Stats().table_bytes;
  EXPECT_GT(bytes, 0u);
  EXPECT_LT(bytes, 2u << 20) << "tables should follow the 2,000 live keys";
  EXPECT_EQ(registry.GetGauge("rc_cache_table_bytes", {}).Value(),
            static_cast<double>(bytes));
  uint64_t out[2];
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(cache.Lookup(k, out));
}

TEST(ShardedCacheTest, TypedFacadeRoundTripsSmallStructs) {
  struct Payload {
    int bucket;
    float score;
    uint64_t tag;
  };
  static_assert(sizeof(Payload) == 16);
  ShardedCache<Payload> cache(SmallOptions(64));
  cache.Insert(11, Payload{3, 0.5f, 0xabcdef}, cache.epoch());
  auto got = cache.Lookup(11);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bucket, 3);
  EXPECT_EQ(got->score, 0.5f);
  EXPECT_EQ(got->tag, 0xabcdefu);
  EXPECT_FALSE(cache.Lookup(12).has_value());
}

TEST(ShardedCacheTest, StatsExposeAdmissionCounters) {
  CacheOptions options = SmallOptions(64);
  Word2Cache cache(options);
  // Far more distinct keys than capacity: admission must reject some
  // candidates (all frequencies equal, ties keep the incumbent).
  for (uint64_t k = 0; k < 1000; ++k) InsertKey(cache, k);
  const CacheStats stats = cache.Stats();
  EXPECT_GT(stats.admit_rejects, 0u);
  EXPECT_GT(stats.evictions_window, 0u);
}

}  // namespace
}  // namespace rc::cache
