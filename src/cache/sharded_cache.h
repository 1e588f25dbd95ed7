// rc::cache — reusable admission-controlled, lock-free-on-hit result cache
// (DESIGN.md "Admission-controlled caching & sharded store").
//
// Layering: this library sits below src/core (core depends on cache, never
// the reverse — check_all.sh lints it). It knows nothing about predictions;
// it maps 64-bit keys to small trivially-copyable values.
//
// Structure (per shard):
//  * Read path — an open-addressed, power-of-two table of seqlock-stamped
//    fixed-size entries plus a SwissTable-style control-byte array (7-bit
//    key tag, empty, tombstone). A hit performs ZERO mutex acquisitions and
//    no shared read-modify-write: probe the control bytes, seqlock-read the
//    slot (bounded retries; a validation failure is counted and treated as
//    a mismatch), then record the access in the frequency sketch (lossy,
//    and silent once a hot key's nibbles saturate) and in the calling
//    thread's read stripe (a relaxed load, a store of the key and a release
//    store of the stripe head). Every slot field readers touch is an atomic,
//    so the seqlock needs no fences and is visible to TSan as plain atomics
//    (no annotations, no suppressions).
//  * Table growth — the mask, control bytes, slots and sketch live in one
//    immutable table object published through a single atomic pointer
//    (release store, acquire load), so a reader never pairs a mask with
//    arrays it does not belong to. A shard starts at 64 slots and doubles
//    under its writer lock whenever live entries plus tombstones would pass
//    half the table, up to NextPow2(max(64, 2 x shard capacity)). Growth
//    replays the live entries in per-region LRU order into the new table,
//    publishes it, and clears the old table's control bytes: a reader still
//    probing the old table gets a false miss, never a stale value. With no
//    reclamation scheme, retired tables are kept until ~Word2Cache; since
//    tables only double, together they are smaller than the live one.
//  * Write path — one mutex per shard serializes inserts/evictions and all
//    policy state: a W-TinyLFU arrangement of a small admission window
//    (LRU), a segmented main region (probation/protected LRUs), and the
//    4-bit count-min FrequencySketch with doorkeeper + periodic halving.
//    Each insert first drains every read stripe into LRU touches. Capacity
//    overflow evicts per insert — never a bulk flush: the window's LRU
//    candidate duels the probation victim on sketch frequency, so one-shot
//    scan keys cannot displace the Zipf-hot working set. A shard reaches
//    its largest table before it can hold `capacity` entries, so eviction
//    and admission always run against the full-size table and sketch.
//  * Epoch invalidation — Insert carries the epoch token the caller read
//    before computing the value; Invalidate() bumps the epoch and then
//    clears each shard under its writer lock, so an insert racing an
//    invalidation can never resurrect a stale value (the same protocol the
//    client's old sharded map used, preserved exactly).
//
// Deletion uses tombstones; when they accumulate past a quarter of the
// table the writer rebuilds the shard in place at the same size. Readers
// racing a rebuild (or any eviction) can see a spurious miss, or the value
// an evicted entry held when the lookup began — never a wrong value: the
// seqlock + key check reject torn or recycled slots, evictions and
// invalidations change only control bytes (a slot always holds a pair that
// was inserted together), and for a cache a false miss is just a recompute.
#ifndef RC_SRC_CACHE_SHARDED_CACHE_H_
#define RC_SRC_CACHE_SHARDED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <type_traits>

#include "src/cache/frequency_sketch.h"
#include "src/obs/metrics.h"

namespace rc::cache {

// Test hook: process-wide count of shard writer-mutex acquisitions (every
// Insert / Invalidate). Tests assert a warm hit storm leaves
// this unchanged — the "zero mutex acquisitions on the hit path" criterion.
uint64_t ShardLockAcquisitions();

struct CacheOptions {
  // Total entries across all shards. 0 disables the cache (lookups miss,
  // inserts drop).
  size_t capacity = 1 << 20;
  // Power of two; clamped to [1, 256].
  size_t shards = 16;
  // W-TinyLFU admission. false degrades the policy to a plain LRU over the
  // whole capacity (the window becomes the only region) — the control arm
  // for admission-quality tests and benches.
  bool admission = true;
  // Registry receiving the rc_cache_* instruments; null = a private one.
  rc::obs::MetricsRegistry* metrics = nullptr;
  rc::obs::Labels metric_labels;
};

struct CacheStats {
  uint64_t entries = 0;
  uint64_t admit_rejects = 0;        // window candidates the sketch rejected
  uint64_t evictions_window = 0;     // includes admission rejections
  uint64_t evictions_probation = 0;  // main victims displaced by admission
  uint64_t evictions_protected = 0;  // plain-LRU mode / clears only
  uint64_t sketch_resets = 0;
  uint64_t probe_retries = 0;  // seqlock validation failures on the read path
  uint64_t rebuilds = 0;       // tombstone-compaction table rebuilds
  // Bytes held by the shard tables: slots + control bytes + LRU metadata +
  // sketch, live tables plus the retired ones kept for in-flight readers.
  uint64_t table_bytes = 0;
};

// The engine: keys are caller-provided 64-bit hashes, values are exactly two
// 64-bit words. Use ShardedCache<V> below for typed values.
class Word2Cache {
 public:
  explicit Word2Cache(const CacheOptions& options);
  ~Word2Cache();

  Word2Cache(const Word2Cache&) = delete;
  Word2Cache& operator=(const Word2Cache&) = delete;

  // Lock-free on hit. Fills out[2] and records the access for the admission
  // policy.
  bool Lookup(uint64_t key, uint64_t out[2]) const;

  // Inserts (or updates in place) unless the cache was invalidated after
  // `epoch_token` was read. At capacity this evicts per the policy — one
  // entry, never a shard flush.
  void Insert(uint64_t key, const uint64_t value[2], uint64_t epoch_token);

  // Read before computing a value destined for Insert.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Bumps the epoch, then clears every shard (entries only — the frequency
  // sketch survives, since the same keys are about to be re-requested).
  void Invalidate();

  size_t size() const;
  CacheStats Stats() const;

  size_t shard_count() const { return shard_mask_ + 1; }

 private:
  struct Table;
  struct Shard;

  void RegisterInstruments();
  Shard& ShardFor(uint64_t mixed_hash) const;

  // Write-side helpers; all require the shard's writer lock.
  void InstallTableLocked(Shard& s, size_t size);
  void RelayoutLocked(Shard& s, size_t size);
  static uint32_t FindSlotLocked(const Table& t, uint64_t key, uint64_t h);
  static uint32_t PlaceLocked(Shard& s, uint64_t key, uint64_t h,
                              const uint64_t value[2]);
  void EvictSlotLocked(Shard& s, uint32_t idx);
  void EvictFromWindowLocked(Shard& s);
  static void TouchLocked(Shard& s, uint32_t idx);
  static void DrainStripesLocked(Shard& s);
  void MaybeRebuildLocked(Shard& s);

  CacheOptions options_;
  std::unique_ptr<Shard[]> shards_;
  size_t shard_mask_ = 0;
  size_t shard_capacity_ = 0;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int64_t> total_entries_{0};
  std::atomic<uint64_t> table_bytes_{0};

  std::unique_ptr<rc::obs::MetricsRegistry> owned_metrics_;
  rc::obs::MetricsRegistry* metrics_ = nullptr;
  struct Instruments {
    rc::obs::Gauge* entries;
    rc::obs::Gauge* table_bytes;
    rc::obs::Counter* admit_rejects;
    rc::obs::Counter* evictions_window;
    rc::obs::Counter* evictions_probation;
    rc::obs::Counter* evictions_protected;
    rc::obs::Counter* sketch_resets;
    rc::obs::Counter* probe_retries;
    rc::obs::Counter* rebuilds;
  };
  Instruments m_{};
};

// Typed facade: V must be trivially copyable and at most 16 bytes. Values
// round-trip through two 64-bit words (memcpy both ways), so padding bytes
// are preserved but never interpreted.
template <typename V>
class ShardedCache {
  static_assert(std::is_trivially_copyable_v<V>,
                "cache values must be trivially copyable");
  static_assert(sizeof(V) <= 16, "cache values must fit in 16 bytes");

 public:
  explicit ShardedCache(const CacheOptions& options) : impl_(options) {}

  std::optional<V> Lookup(uint64_t key) const {
    uint64_t words[2];
    if (!impl_.Lookup(key, words)) return std::nullopt;
    V value;
    std::memcpy(&value, words, sizeof(V));
    return value;
  }

  void Insert(uint64_t key, const V& value, uint64_t epoch_token) {
    uint64_t words[2] = {0, 0};
    std::memcpy(words, &value, sizeof(V));
    impl_.Insert(key, words, epoch_token);
  }

  uint64_t epoch() const { return impl_.epoch(); }
  void Invalidate() { impl_.Invalidate(); }
  size_t size() const { return impl_.size(); }
  CacheStats Stats() const { return impl_.Stats(); }

 private:
  Word2Cache impl_;
};

}  // namespace rc::cache

#endif  // RC_SRC_CACHE_SHARDED_CACHE_H_
