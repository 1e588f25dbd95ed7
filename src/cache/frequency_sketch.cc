#include "src/cache/frequency_sketch.h"

#include <algorithm>

namespace rc::cache {

namespace {

// Row seeds (large odd constants): each count-min row sees an independently
// mixed view of the key hash.
constexpr uint64_t kRowSeed[4] = {
    0xc3a5c85c97cb3127ULL,
    0xb492b66fbe98f273ULL,
    0x9ae16a3b2f90404fULL,
    0x85ebca6b27d4eb2fULL,
};

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

uint64_t Mix(uint64_t h, uint64_t seed) {
  uint64_t x = h * seed;
  x ^= x >> 32;
  return x;
}

// Saturating 4-bit increment at `shift` inside `word`. Bounded CAS: gives up
// under contention (the sketch is lossy) and skips once saturated.
bool IncrementNibble(std::atomic<uint64_t>& word, int shift) {
  uint64_t cur = word.load(std::memory_order_relaxed);
  for (int tries = 0; tries < 4; ++tries) {
    if (((cur >> shift) & 0xF) == 0xF) return false;  // saturated
    if (word.compare_exchange_weak(cur, cur + (1ULL << shift),
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void FrequencySketch::Init(size_t capacity) {
  capacity = std::max<size_t>(capacity, 16);
  table_words_ = NextPow2(capacity);
  table_ = std::make_unique<std::atomic<uint64_t>[]>(table_words_);
  door_bits_ = NextPow2(capacity * 4);
  door_ = std::make_unique<std::atomic<uint64_t>[]>(door_bits_ / 64);
  sample_size_ = 10 * capacity;
  additions_.store(0, std::memory_order_relaxed);
}

size_t FrequencySketch::CounterIndex(uint64_t hash, int row) const {
  // 16 counters per word: the low 4 bits select the nibble, the rest the word.
  return static_cast<size_t>(Mix(hash, kRowSeed[row])) &
         (table_words_ * 16 - 1);
}

size_t FrequencySketch::DoorBit(uint64_t hash, int probe) const {
  const uint64_t seed = probe == 0 ? kRowSeed[0] ^ kRowSeed[2]
                                   : kRowSeed[1] ^ kRowSeed[3];
  return static_cast<size_t>(Mix(hash, seed)) & (door_bits_ - 1);
}

bool FrequencySketch::InDoorkeeper(uint64_t hash) const {
  for (int probe = 0; probe < 2; ++probe) {
    const size_t b = DoorBit(hash, probe);
    if ((door_[b >> 6].load(std::memory_order_relaxed) & (1ULL << (b & 63))) ==
        0) {
      return false;
    }
  }
  return true;
}

void FrequencySketch::SetDoorkeeper(uint64_t hash) {
  for (int probe = 0; probe < 2; ++probe) {
    const size_t b = DoorBit(hash, probe);
    door_[b >> 6].fetch_or(1ULL << (b & 63), std::memory_order_relaxed);
  }
}

int FrequencySketch::MinCount(uint64_t hash) const {
  int count = 15;
  for (int row = 0; row < kDepth; ++row) {
    size_t idx = CounterIndex(hash, row);
    uint64_t word = table_[idx >> 4].load(std::memory_order_relaxed);
    count = std::min(count, static_cast<int>((word >> ((idx & 15) * 4)) & 0xF));
  }
  return count;
}

void FrequencySketch::Observe(uint64_t hash) {
  if (table_ == nullptr) return;
  // Doorkeeper: two probe bits. A never-seen key just sets its bits; the
  // count-min rows only see keys accessed at least twice, which keeps
  // one-shot scans out of the counters entirely.
  if (!InDoorkeeper(hash)) {
    SetDoorkeeper(hash);
    additions_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  bool incremented = false;
  for (int row = 0; row < kDepth; ++row) {
    size_t idx = CounterIndex(hash, row);
    incremented |= IncrementNibble(table_[idx >> 4], (idx & 15) * 4);
  }
  if (incremented) additions_.fetch_add(1, std::memory_order_relaxed);
}

int FrequencySketch::Frequency(uint64_t hash) const {
  if (table_ == nullptr) return 0;
  return MinCount(hash) + (InDoorkeeper(hash) ? 1 : 0);
}

void FrequencySketch::Inherit(const FrequencySketch& from,
                              std::span<const uint64_t> hashes) {
  if (table_ == nullptr || from.table_ == nullptr) return;
  for (const uint64_t hash : hashes) {
    if (from.InDoorkeeper(hash)) SetDoorkeeper(hash);
    const uint64_t count = static_cast<uint64_t>(from.MinCount(hash));
    if (count == 0) continue;
    for (int row = 0; row < kDepth; ++row) {
      const size_t idx = CounterIndex(hash, row);
      const int shift = static_cast<int>(idx & 15) * 4;
      std::atomic<uint64_t>& word = table_[idx >> 4];
      const uint64_t cur = word.load(std::memory_order_relaxed);
      if (((cur >> shift) & 0xF) < count) {
        word.store((cur & ~(0xFULL << shift)) | (count << shift),
                   std::memory_order_relaxed);
      }
    }
  }
  additions_.store(
      std::min(from.additions_.load(std::memory_order_relaxed), sample_size_),
      std::memory_order_relaxed);
}

void FrequencySketch::Reset() {
  if (table_ == nullptr) return;
  // Halve every nibble in place: shift the word right once and mask out the
  // bit that leaked in from the neighboring nibble.
  constexpr uint64_t kHalveMask = 0x7777777777777777ULL;
  for (size_t w = 0; w < table_words_; ++w) {
    uint64_t cur = table_[w].load(std::memory_order_relaxed);
    table_[w].store((cur >> 1) & kHalveMask, std::memory_order_relaxed);
  }
  for (size_t w = 0; w < door_bits_ / 64; ++w) {
    door_[w].store(0, std::memory_order_relaxed);
  }
  additions_.store(sample_size_ / 2, std::memory_order_relaxed);
  resets_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace rc::cache
