// TinyLFU frequency sketch (DESIGN.md "Admission-controlled caching"): a
// 4-bit count-min sketch with a doorkeeper bloom filter in front and
// periodic halving ("aging"), so an entry's estimated popularity tracks its
// *recent* request rate rather than its lifetime count. The admission policy
// (sharded_cache) compares the sketch frequency of an eviction candidate
// against the main region's victim; one-shot scan keys never accumulate
// enough frequency to displace the hot working set.
//
// Concurrency: Observe() is called from the cache's lock-free hit path, so
// every mutation is a relaxed/CAS atomic op — no mutex anywhere. Counter
// increments are bounded CAS loops that give up under contention and skip
// entirely once the nibble saturates at 15 (hot keys stop writing almost
// immediately, which is what keeps a Zipf-hot probe path cheap). Reset() is
// writer-only (the owning shard's insert path) and is lossy with respect to
// concurrent Observes — the sketch is an estimator, not a ledger.
//
// Lifetime: the cache keeps one sketch inside each shard table, sized with
// the table, because lock-free readers Observe() into whichever table they
// loaded. A growing shard builds a new sketch for its new table and carries
// every live key's estimate into it (Inherit); the old sketch stays valid
// for in-flight readers until the cache dies. Growth ends before the shard
// can hold `capacity` entries, so admission always consults the full-size
// sketch. Carrying the estimates matters: before the first eviction every
// observed key is live, and a hot set warmed up before the shard filled
// would otherwise enter its first admission duels with no history at all.
//
// Observe() stays on the hit path rather than moving to the writer's stripe
// drain: drains run only on inserts, so a warm-up made only of lookups
// would leave the hot set with no frequency history, and the admission
// duel would then treat it like scan traffic. Saturated hot keys write
// nothing, so the cost on the hit path is a few loads.
#ifndef RC_SRC_CACHE_FREQUENCY_SKETCH_H_
#define RC_SRC_CACHE_FREQUENCY_SKETCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace rc::cache {

class FrequencySketch {
 public:
  FrequencySketch() = default;

  // Sizes the sketch for ~`capacity` cached entries: one 64-bit word of
  // sixteen 4-bit counters per entry (4x headroom over the 4 hashed rows)
  // and a 4-bits-per-entry doorkeeper. Must be called before any Observe;
  // the cache calls it while building each shard table, before the table is
  // published to readers.
  void Init(size_t capacity);
  bool initialized() const { return table_ != nullptr; }

  // Records one access. First-time keys only set doorkeeper bits; keys seen
  // again increment their four count-min nibbles (saturating at 15).
  void Observe(uint64_t hash);

  // Estimated access count: min of the four nibbles, plus one if the
  // doorkeeper remembers the key. Range [0, 16].
  int Frequency(uint64_t hash) const;

  // Carries each key's estimate from `from` into this freshly Init()ed,
  // not yet published sketch: its doorkeeper bits and a count-min floor of
  // its old minimum, plus `from`'s count of additions toward the next
  // halving. Writer-only; `from` may be observed concurrently.
  void Inherit(const FrequencySketch& from, std::span<const uint64_t> hashes);

  // True once enough accesses accumulated that counts should be halved.
  bool ShouldReset() const {
    return sample_size_ > 0 &&
           additions_.load(std::memory_order_relaxed) >= sample_size_;
  }

  // Halves every counter and clears the doorkeeper. Writer-only; concurrent
  // Observes may be partially lost (by design — the sketch is approximate).
  void Reset();

  uint64_t resets() const { return resets_.load(std::memory_order_relaxed); }

  // Heap bytes held by the counter rows and the doorkeeper.
  size_t bytes() const {
    return table_words_ * sizeof(uint64_t) + door_bits_ / 8;
  }

 private:
  static constexpr int kDepth = 4;  // count-min rows

  // Spreads `hash` into the i-th row's counter index.
  size_t CounterIndex(uint64_t hash, int row) const;
  // Minimum of the four count-min nibbles (no doorkeeper term).
  int MinCount(uint64_t hash) const;
  // Whether both doorkeeper bits of `hash` are set / sets them.
  bool InDoorkeeper(uint64_t hash) const;
  void SetDoorkeeper(uint64_t hash);
  // Position of doorkeeper bit `probe` (0 or 1) for `hash`.
  size_t DoorBit(uint64_t hash, int probe) const;

  std::unique_ptr<std::atomic<uint64_t>[]> table_;  // 16 nibbles per word
  size_t table_words_ = 0;                          // power of two
  std::unique_ptr<std::atomic<uint64_t>[]> door_;   // doorkeeper bitset
  size_t door_bits_ = 0;                            // power of two
  uint64_t sample_size_ = 0;                        // reset threshold
  std::atomic<uint64_t> additions_{0};
  std::atomic<uint64_t> resets_{0};
};

}  // namespace rc::cache

#endif  // RC_SRC_CACHE_FREQUENCY_SKETCH_H_
