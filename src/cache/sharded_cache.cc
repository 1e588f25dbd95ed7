#include "src/cache/sharded_cache.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <vector>

#include "src/common/hashing.h"

namespace rc::cache {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;
constexpr auto kAcquire = std::memory_order_acquire;
constexpr auto kRelease = std::memory_order_release;

// W-TinyLFU region sizes: the admission window (recency-biased) holds 1% of
// a shard's capacity, and the protected segment 80% of the main region.
constexpr double kWindowFraction = 0.01;
constexpr double kProtectedFraction = 0.80;

constexpr uint32_t kNil = 0xFFFFFFFFu;
constexpr uint8_t kCtrlEmpty = 0;
constexpr uint8_t kCtrlTombstone = 1;

std::atomic<uint64_t> g_shard_lock_count{0};

// Control byte for a present entry: high bit set plus 7 tag bits from the
// top of the mixed hash (disjoint from the probe-start bits), so a probe
// touches the 32-byte slot only when the tag already agrees.
uint8_t TagFor(uint64_t h) { return static_cast<uint8_t>(0x80u | (h >> 57)); }

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// One cached entry as readers see it. All fields are atomics so the seqlock
// read protocol is expressible without fences and visible to TSan as plain
// atomic traffic: writers bump `seq` odd (acq_rel RMW — later stores cannot
// hoist above it), store the fields with release, then bump `seq` even with
// release; readers load `seq` with acquire, load the fields with acquire
// (which pins the revalidating `seq` load after them), and retry on any
// mismatch or odd value.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> key{0};
  std::atomic<uint64_t> w0{0};
  std::atomic<uint64_t> w1{0};
};

enum Region : uint8_t { kFree = 0, kWindow = 1, kProbation = 2, kProtected = 3 };

// Writer-side per-slot policy metadata: intrusive LRU links + region tag.
struct Meta {
  uint32_t prev = kNil;
  uint32_t next = kNil;
  uint8_t region = kFree;
};

struct List {
  uint32_t head = kNil;  // LRU end (eviction candidates)
  uint32_t tail = kNil;  // MRU end
  size_t size = 0;
};

// Per-thread read stripe: the hit path appends the key with a relaxed load,
// a store and a release store of `head` — no read-modify-write, so readers
// on different stripes never contend. Threads that share a stripe (more
// threads than stripes) can overwrite each other's events; recency is lossy
// anyway. The writer drains every stripe on insert.
constexpr size_t kStripes = rc::obs::kShards;
constexpr size_t kStripeSlots = 128;  // power of two

struct alignas(64) ReadStripe {
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> keys[kStripeSlots];
};
static_assert(sizeof(ReadStripe) * kStripes <= 32 * 1024,
              "read stripes must stay within 32 KB per shard");

constexpr size_t kMinTable = 64;

}  // namespace

uint64_t ShardLockAcquisitions() { return g_shard_lock_count.load(kRelaxed); }

// Everything a lock-free reader indexes, immutable in shape once published:
// the mask always belongs to these arrays. The sketch lives here too, so a
// reader still holding a retired table observes into valid memory.
struct Word2Cache::Table {
  Table(size_t size, size_t sketch_capacity)
      : mask(size - 1),
        ctrl(std::make_unique<std::atomic<uint8_t>[]>(size)),
        slots(std::make_unique<Slot[]>(size)) {
    sketch.Init(sketch_capacity);
  }
  size_t size() const { return mask + 1; }

  const size_t mask;
  const std::unique_ptr<std::atomic<uint8_t>[]> ctrl;
  const std::unique_ptr<Slot[]> slots;
  FrequencySketch sketch;
};

struct alignas(64) Word2Cache::Shard {
  mutable std::mutex mu;  // writers only; the hit path never touches it

  // The reader-visible table (null until the first insert). Growth
  // publishes a new one with a release store.
  std::atomic<Table*> table{nullptr};

  // Everything below is written only under mu. Readers also append to
  // `stripes`, which is allocated before the first table is published, so
  // a reader that acquired a table sees it.
  std::vector<std::unique_ptr<Table>> tables;  // back() is live; the rest
                                               // are retired, kept for readers
  Table* live = nullptr;                       // == tables.back()
  std::unique_ptr<ReadStripe[]> stripes;
  std::array<uint64_t, kStripes> stripe_tails{};

  // W-TinyLFU policy state.
  std::vector<Meta> meta;
  List window, probation, prot;
  size_t capacity = 0;
  size_t max_table = 0;
  size_t window_cap = 0;
  size_t main_cap = 0;
  size_t protected_cap = 0;
  size_t entries = 0;
  size_t tombstones = 0;
};

Word2Cache::Word2Cache(const CacheOptions& options) : options_(options) {
  const size_t shard_count =
      NextPow2(std::clamp<size_t>(options_.shards, 1, 256));
  shard_mask_ = shard_count - 1;
  shard_capacity_ =
      options_.capacity == 0
          ? 0
          : std::max<size_t>(1, options_.capacity / shard_count);
  shards_ = std::make_unique<Shard[]>(shard_count);
  for (size_t i = 0; i <= shard_mask_; ++i) {
    Shard& s = shards_[i];
    s.capacity = shard_capacity_;
    // Load factor <= 1/2 at capacity keeps probe chains short.
    s.max_table = NextPow2(std::max<size_t>(kMinTable, s.capacity * 2));
    if (!options_.admission) {
      // Plain-LRU control arm: the window is the whole cache.
      s.window_cap = s.capacity;
    } else {
      s.window_cap = std::max<size_t>(
          1, static_cast<size_t>(
                 std::llround(static_cast<double>(s.capacity) * kWindowFraction)));
      s.window_cap = std::min(s.window_cap, s.capacity);
      s.main_cap = s.capacity - s.window_cap;
      s.protected_cap = static_cast<size_t>(
          std::llround(static_cast<double>(s.main_cap) * kProtectedFraction));
    }
  }
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<rc::obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  RegisterInstruments();
}

Word2Cache::~Word2Cache() = default;

void Word2Cache::RegisterInstruments() {
  auto labeled = [this](const char* key, const char* value) {
    rc::obs::Labels labels = options_.metric_labels;
    labels.emplace_back(key, value);
    return labels;
  };
  m_.entries = &metrics_->GetGauge("rc_cache_entries", options_.metric_labels,
                                   "live cached entries across shards");
  m_.table_bytes = &metrics_->GetGauge(
      "rc_cache_table_bytes", options_.metric_labels,
      "bytes in shard tables: slots, control bytes, LRU metadata and sketch, "
      "live plus retired");
  m_.admit_rejects =
      &metrics_->GetCounter("rc_cache_admit_rejects", options_.metric_labels,
                            "window candidates rejected by TinyLFU admission");
  m_.evictions_window = &metrics_->GetCounter(
      "rc_cache_evictions", labeled("region", "window"), "evictions by region");
  m_.evictions_probation =
      &metrics_->GetCounter("rc_cache_evictions", labeled("region", "probation"));
  m_.evictions_protected =
      &metrics_->GetCounter("rc_cache_evictions", labeled("region", "protected"));
  m_.sketch_resets =
      &metrics_->GetCounter("rc_cache_sketch_resets", options_.metric_labels,
                            "frequency-sketch halving events");
  m_.probe_retries = &metrics_->GetCounter(
      "rc_cache_probe_retries", options_.metric_labels,
      "seqlock validation failures on the lock-free probe path");
  m_.rebuilds =
      &metrics_->GetCounter("rc_cache_rebuilds", options_.metric_labels,
                            "tombstone-compaction table rebuilds");
}

Word2Cache::Shard& Word2Cache::ShardFor(uint64_t mixed_hash) const {
  return shards_[mixed_hash & shard_mask_];
}

namespace {

// --- intrusive LRU list helpers (writer lock held) ---

void ListPushBack(std::vector<Meta>& meta, List& list, uint32_t idx,
                  uint8_t region) {
  Meta& m = meta[idx];
  m.region = region;
  m.next = kNil;
  m.prev = list.tail;
  if (list.tail != kNil) meta[list.tail].next = idx;
  list.tail = idx;
  if (list.head == kNil) list.head = idx;
  list.size += 1;
}

void ListRemove(std::vector<Meta>& meta, List& list, uint32_t idx) {
  Meta& m = meta[idx];
  if (m.prev != kNil) meta[m.prev].next = m.next; else list.head = m.next;
  if (m.next != kNil) meta[m.next].prev = m.prev; else list.tail = m.prev;
  m.prev = m.next = kNil;
  list.size -= 1;
}

// Seqlock write cycle over one slot. Requires the shard writer lock.
void SeqlockWrite(Slot& slot, uint64_t key, uint64_t w0, uint64_t w1) {
  slot.seq.fetch_add(1, std::memory_order_acq_rel);  // odd: readers back off
  slot.key.store(key, std::memory_order_release);
  slot.w0.store(w0, std::memory_order_release);
  slot.w1.store(w1, std::memory_order_release);
  slot.seq.fetch_add(1, std::memory_order_release);  // even: stable again
}

}  // namespace

bool Word2Cache::Lookup(uint64_t key, uint64_t out[2]) const {
  if (shard_capacity_ == 0) return false;
  const uint64_t h = HashU64(key);
  Shard& s = ShardFor(h);
  Table* t = s.table.load(kAcquire);
  if (t == nullptr) return false;  // shard never written
  const std::atomic<uint8_t>* ctrl = t->ctrl.get();
  Slot* slots = t->slots.get();
  const size_t mask = t->mask;
  const uint8_t tag = TagFor(h);
  size_t i = (h >> 8) & mask;
  for (size_t n = 0; n <= mask; ++n, i = (i + 1) & mask) {
    const uint8_t c = ctrl[i].load(kAcquire);
    if (c == kCtrlEmpty) return false;
    if (c != tag) continue;  // tombstone or different 7-bit tag
    Slot& slot = slots[i];
    for (int attempt = 0; attempt < 8; ++attempt) {
      const uint64_t s1 = slot.seq.load(kAcquire);
      if (s1 & 1) {  // writer mid-cycle
        m_.probe_retries->Increment();
        continue;
      }
      const uint64_t k = slot.key.load(kAcquire);
      const uint64_t a = slot.w0.load(kAcquire);
      const uint64_t b = slot.w1.load(kAcquire);
      if (slot.seq.load(kRelaxed) != s1) {  // torn: slot changed under us
        m_.probe_retries->Increment();
        continue;
      }
      if (k != key) break;  // tag collision: keep probing the chain
      out[0] = a;
      out[1] = b;
      // Record the access for the admission policy: frequency now (a hot
      // key's saturated nibbles are not rewritten), recency through this
      // thread's stripe, which the next writer drains. No shared RMW.
      t->sketch.Observe(h);
      ReadStripe& stripe = s.stripes[rc::obs::ThreadShard()];
      const uint64_t pos = stripe.head.load(kRelaxed);
      stripe.keys[pos & (kStripeSlots - 1)].store(key, kRelaxed);
      stripe.head.store(pos + 1, kRelease);
      return true;
    }
    // Retries exhausted under writer churn: treat as a miss for this slot
    // and keep probing — a false miss is safe, a torn value is not.
  }
  return false;
}

// --- write side; every method below requires the shard lock ---

void Word2Cache::Insert(uint64_t key, const uint64_t value[2],
                        uint64_t epoch_token) {
  if (shard_capacity_ == 0) return;
  const uint64_t h = HashU64(key);
  Shard& s = ShardFor(h);
  g_shard_lock_count.fetch_add(1, kRelaxed);
  std::lock_guard<std::mutex> lock(s.mu);
  // An invalidation ran after the caller read its token; dropping the insert
  // keeps stale values from outliving the invalidation. (If the epoch bumps
  // after this check, Invalidate's pending per-shard clear — which takes
  // this same lock — removes the entry.)
  if (epoch_.load(kAcquire) != epoch_token) return;
  if (s.live == nullptr) {
    s.stripes = std::make_unique<ReadStripe[]>(kStripes);
    InstallTableLocked(s, kMinTable);
    s.table.store(s.live, kRelease);
  }
  DrainStripesLocked(s);
  uint32_t idx = FindSlotLocked(*s.live, key, h);
  if (idx == kNil && (s.entries + s.tombstones + 1) * 2 > s.live->size() &&
      s.live->size() < s.max_table) {
    RelayoutLocked(s, s.live->size() * 2);
  }
  FrequencySketch& sketch = s.live->sketch;
  sketch.Observe(h);
  if (sketch.ShouldReset()) {
    sketch.Reset();
    m_.sketch_resets->Increment();
  }
  if (idx != kNil) {  // present: update value in place, refresh recency
    SeqlockWrite(s.live->slots[idx], key, value[0], value[1]);
    TouchLocked(s, idx);
    return;
  }
  idx = PlaceLocked(s, key, h, value);
  ListPushBack(s.meta, s.window, idx, kWindow);
  s.entries += 1;
  total_entries_.fetch_add(1, kRelaxed);
  // A new arrival always lands in the window; overflow sheds the window's
  // LRU candidate through TinyLFU admission — one entry per insert, never a
  // shard flush.
  while (s.window.size > s.window_cap) EvictFromWindowLocked(s);
  m_.entries->Set(static_cast<double>(total_entries_.load(kRelaxed)));
  MaybeRebuildLocked(s);
}

void Word2Cache::InstallTableLocked(Shard& s, size_t size) {
  // The sketch is sized with the table and reaches the shard's capacity at
  // the largest table, the only one eviction and admission ever run on.
  auto table =
      std::make_unique<Table>(size, std::min(s.capacity, size / 2));
  const size_t old_meta = s.meta.size();
  s.meta.assign(size, Meta{});
  const uint64_t added = size * (sizeof(Slot) + sizeof(table->ctrl[0])) +
                         table->sketch.bytes() +
                         (size - old_meta) * sizeof(Meta);
  s.live = table.get();
  s.tables.push_back(std::move(table));
  table_bytes_.fetch_add(added, kRelaxed);
  m_.table_bytes->Add(static_cast<double>(added));
}

uint32_t Word2Cache::FindSlotLocked(const Table& t, uint64_t key,
                                    uint64_t h) {
  const size_t mask = t.mask;
  const uint8_t tag = TagFor(h);
  size_t i = (h >> 8) & mask;
  for (size_t n = 0; n <= mask; ++n, i = (i + 1) & mask) {
    const uint8_t c = t.ctrl[i].load(kRelaxed);
    if (c == kCtrlEmpty) return kNil;
    if (c != tag) continue;
    if (t.slots[i].key.load(kRelaxed) == key) {
      return static_cast<uint32_t>(i);
    }
  }
  return kNil;
}

uint32_t Word2Cache::PlaceLocked(Shard& s, uint64_t key, uint64_t h,
                                 const uint64_t value[2]) {
  Table& t = *s.live;
  const size_t mask = t.mask;
  size_t i = (h >> 8) & mask;
  size_t target = SIZE_MAX;
  for (size_t n = 0; n <= mask; ++n, i = (i + 1) & mask) {
    const uint8_t c = t.ctrl[i].load(kRelaxed);
    if (c == kCtrlTombstone && target == SIZE_MAX) target = i;
    if (c == kCtrlEmpty) {
      if (target == SIZE_MAX) target = i;
      break;
    }
  }
  if (t.ctrl[target].load(kRelaxed) == kCtrlTombstone) {
    s.tombstones -= 1;
  }
  SeqlockWrite(t.slots[target], key, value[0], value[1]);
  // Tag after the slot write: a reader never sees a tagged, unwritten slot.
  t.ctrl[target].store(TagFor(h), kRelease);
  s.meta[target] = Meta{};
  return static_cast<uint32_t>(target);
}

void Word2Cache::EvictSlotLocked(Shard& s, uint32_t idx) {
  // Only the control byte changes. The slot keeps its last (key, value)
  // pair, so a reader that matched the tag just before the tombstone still
  // reads a pair that belongs together. Rewriting the slot (to key 0, say)
  // would let a lookup of that key whose tag collides accept the rewrite.
  s.live->ctrl[idx].store(kCtrlTombstone, kRelease);
  s.meta[idx].region = kFree;
  s.entries -= 1;
  s.tombstones += 1;
  total_entries_.fetch_sub(1, kRelaxed);
}

void Word2Cache::EvictFromWindowLocked(Shard& s) {
  const uint32_t cand = s.window.head;
  ListRemove(s.meta, s.window, cand);
  if (s.main_cap == 0) {  // plain-LRU mode (or degenerate tiny cache)
    EvictSlotLocked(s, cand);
    m_.evictions_window->Increment();
    return;
  }
  if (s.probation.size + s.prot.size < s.main_cap) {
    ListPushBack(s.meta, s.probation, cand, kProbation);
    return;
  }
  // Admission duel: the window candidate displaces the main region's victim
  // only if the sketch says it is the more frequent key.
  const uint32_t victim =
      s.probation.head != kNil ? s.probation.head : s.prot.head;
  const Table& t = *s.live;
  const uint64_t cand_key = t.slots[cand].key.load(kRelaxed);
  const uint64_t victim_key = t.slots[victim].key.load(kRelaxed);
  const int cand_freq = t.sketch.Frequency(HashU64(cand_key));
  const int victim_freq = t.sketch.Frequency(HashU64(victim_key));
  if (cand_freq > victim_freq) {
    const bool from_protected = s.meta[victim].region == kProtected;
    ListRemove(s.meta, from_protected ? s.prot : s.probation, victim);
    EvictSlotLocked(s, victim);
    (from_protected ? m_.evictions_protected : m_.evictions_probation)
        ->Increment();
    ListPushBack(s.meta, s.probation, cand, kProbation);
  } else {
    EvictSlotLocked(s, cand);
    m_.evictions_window->Increment();
    m_.admit_rejects->Increment();
  }
}

void Word2Cache::TouchLocked(Shard& s, uint32_t idx) {
  switch (s.meta[idx].region) {
    case kWindow:
      ListRemove(s.meta, s.window, idx);
      ListPushBack(s.meta, s.window, idx, kWindow);
      break;
    case kProbation:
      // Re-accessed on probation: promote. The protected segment sheds its
      // own LRU back to probation when over budget (no eviction).
      ListRemove(s.meta, s.probation, idx);
      ListPushBack(s.meta, s.prot, idx, kProtected);
      while (s.prot.size > s.protected_cap && s.prot.head != kNil) {
        const uint32_t demoted = s.prot.head;
        ListRemove(s.meta, s.prot, demoted);
        ListPushBack(s.meta, s.probation, demoted, kProbation);
      }
      break;
    case kProtected:
      ListRemove(s.meta, s.prot, idx);
      ListPushBack(s.meta, s.prot, idx, kProtected);
      break;
    default:
      break;
  }
}

void Word2Cache::DrainStripesLocked(Shard& s) {
  for (size_t i = 0; i < kStripes; ++i) {
    ReadStripe& stripe = s.stripes[i];
    const uint64_t head = stripe.head.load(kAcquire);
    uint64_t& tail = s.stripe_tails[i];
    if (head == tail) continue;
    // Two readers sharing a stripe can move its head backwards; an overrun
    // loses the oldest events. Either way, replay at most one stripe's worth.
    if (head < tail || head - tail > kStripeSlots) {
      tail = head - std::min<uint64_t>(head, kStripeSlots);
    }
    for (; tail != head; ++tail) {
      const uint64_t key =
          stripe.keys[tail & (kStripeSlots - 1)].load(kRelaxed);
      const uint32_t idx = FindSlotLocked(*s.live, key, HashU64(key));
      if (idx != kNil) TouchLocked(s, idx);
    }
  }
}

void Word2Cache::RelayoutLocked(Shard& s, size_t size) {
  // Collect every live entry in LRU order per region, then replay the
  // inserts into a wiped table of `size` slots: a new, larger table for
  // growth, or the live one for tombstone compaction. Readers racing the
  // replay see spurious misses at worst — the seqlock and key check keep
  // recycled slots from ever yielding a wrong value.
  struct Saved {
    uint64_t key, w0, w1;
    uint8_t region;
  };
  std::vector<Saved> saved;
  saved.reserve(s.entries);
  auto collect = [&](const List& list, uint8_t region) {
    for (uint32_t i = list.head; i != kNil; i = s.meta[i].next) {
      const Slot& slot = s.live->slots[i];
      saved.push_back({slot.key.load(kRelaxed), slot.w0.load(kRelaxed),
                       slot.w1.load(kRelaxed), region});
    }
  };
  collect(s.window, kWindow);
  collect(s.probation, kProbation);
  collect(s.prot, kProtected);
  Table* old = s.live;
  if (size != old->size()) {
    InstallTableLocked(s, size);
    // Before the first eviction every observed key is live, so carrying
    // the live keys' estimates keeps the shard's whole frequency history.
    std::vector<uint64_t> hashes;
    hashes.reserve(saved.size());
    for (const Saved& e : saved) hashes.push_back(HashU64(e.key));
    s.live->sketch.Inherit(old->sketch, hashes);
  } else {
    for (size_t i = 0; i < size; ++i) old->ctrl[i].store(kCtrlEmpty, kRelease);
    s.meta.assign(size, Meta{});
  }
  s.window = s.probation = s.prot = List{};
  s.tombstones = 0;
  for (const Saved& e : saved) {
    const uint64_t value[2] = {e.w0, e.w1};
    const uint32_t idx = PlaceLocked(s, e.key, HashU64(e.key), value);
    switch (e.region) {
      case kWindow: ListPushBack(s.meta, s.window, idx, kWindow); break;
      case kProbation: ListPushBack(s.meta, s.probation, idx, kProbation); break;
      default: ListPushBack(s.meta, s.prot, idx, kProtected); break;
    }
  }
  if (s.live == old) return;
  s.table.store(s.live, kRelease);
  // Retire the old table. Its slots are never written again, but a later
  // update lands only in the new table, so clear the control bytes: a
  // reader still probing the old table gets a false miss, not a stale
  // value. The memory stays until ~Word2Cache (no reclamation scheme).
  for (size_t i = 0; i < old->size(); ++i) {
    old->ctrl[i].store(kCtrlEmpty, kRelease);
  }
}

void Word2Cache::MaybeRebuildLocked(Shard& s) {
  if (s.tombstones <= s.live->size() / 4) return;
  RelayoutLocked(s, s.live->size());
  m_.rebuilds->Increment();
}

void Word2Cache::Invalidate() {
  // Bump first: inserts racing this call fail their token check, and any
  // insert that squeaked past it is removed by the per-shard clears below
  // (which serialize on the same writer locks).
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (size_t sh = 0; sh <= shard_mask_; ++sh) {
    Shard& s = shards_[sh];
    g_shard_lock_count.fetch_add(1, kRelaxed);
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.live == nullptr) continue;
    Table& t = *s.live;
    // As in EvictSlotLocked, slots keep their pairs; only the tags go.
    for (size_t i = 0; i < t.size(); ++i) t.ctrl[i].store(kCtrlEmpty, kRelease);
    s.meta.assign(t.size(), Meta{});
    s.window = s.probation = s.prot = List{};
    s.tombstones = 0;
    total_entries_.fetch_sub(static_cast<int64_t>(s.entries), kRelaxed);
    s.entries = 0;
    for (size_t i = 0; i < kStripes; ++i) {  // drop queued recency events
      s.stripe_tails[i] = s.stripes[i].head.load(kAcquire);
    }
    // The table keeps its size and the sketch survives: the invalidated keys
    // are about to be re-requested and their frequency history is exactly
    // what admission needs.
  }
  m_.entries->Set(static_cast<double>(std::max<int64_t>(
      0, total_entries_.load(kRelaxed))));
}

size_t Word2Cache::size() const {
  return static_cast<size_t>(std::max<int64_t>(0, total_entries_.load(kRelaxed)));
}

CacheStats Word2Cache::Stats() const {
  CacheStats out;
  out.entries = size();
  out.admit_rejects = m_.admit_rejects->Value();
  out.evictions_window = m_.evictions_window->Value();
  out.evictions_probation = m_.evictions_probation->Value();
  out.evictions_protected = m_.evictions_protected->Value();
  out.sketch_resets = m_.sketch_resets->Value();
  out.probe_retries = m_.probe_retries->Value();
  out.rebuilds = m_.rebuilds->Value();
  out.table_bytes = table_bytes_.load(kRelaxed);
  return out;
}

}  // namespace rc::cache
