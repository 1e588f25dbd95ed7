// rc::obs — process-wide observability: named counters, gauges, and
// lock-free fixed-bucket latency histograms behind a MetricsRegistry.
//
// Design goals (DESIGN.md "Observability"):
//  * The prediction hot path must stay contention-free: every instrument
//    write is a relaxed atomic operation on a cache-line-aligned per-thread
//    shard — no mutex, no CAS retry loop on the counter path, no allocation.
//  * Instrument lookup is cold: callers resolve `Counter*` / `Histogram*`
//    once (registry get-or-create under a mutex) and hold the pointer; the
//    registry never invalidates instrument pointers.
//  * Snapshots are wait-free for writers: readers sum the shards with
//    relaxed loads, so a snapshot taken during a write storm is approximate
//    in the usual Prometheus sense (each shard value is atomically read, the
//    sum may be mid-update) but never torn per shard and never blocks.
//
// Naming scheme: `rc_<component>_<what>[_<unit>]`, labels rendered
// Prometheus-style (`rc_sched_rule_rejections{rule="strict-fit"}`).
// Latency histograms use microseconds and the `_us` suffix.
#ifndef RC_SRC_OBS_METRICS_H_
#define RC_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rc::obs {

// Monotonic nanosecond clock used by all span/latency instrumentation.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Shard index for the calling thread, assigned round-robin on first use so
// concurrent writers land on different cache lines. Shared by all sharded
// instruments (the pinning only needs to spread threads, not isolate them).
inline constexpr size_t kShards = 16;  // power of two
size_t ThreadShard();

// Monotonic counter. Increment is one relaxed fetch_add on the caller's
// shard; Value() sums the shards.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    shards_[ThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_;
};

// Last-write-wins double gauge. Set/Value are single relaxed operations;
// Add is a relaxed fetch_add (C++20 atomic<double>).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram with per-thread shards. Record() is two relaxed
// atomic adds (bucket count + shard sum) plus a log10 for the bucket index;
// no locks anywhere, so it is safe on the prediction hot path.
//
// Every histogram shares one log-spaced layout: finite bucket i covers
// (bound[i-1], bound[i]] with bound[i] = 0.1 * 10^(i / 8), from 0.1 (us)
// to 1e7 (10 s) — 65 finite bounds plus one overflow bucket. Values at or
// below 0.1 (including negatives) land in bucket 0. Quantiles report the
// upper bound of the bucket holding the rank, so they overestimate by at
// most one bucket width (a factor of 10^(1/8), 1.33x).
//
// The sliding window (TakeWindowSnapshot) covers the last minute: a ring of
// epoch-tagged shard sets, 6 epochs of 10 s plus one spare. A recording
// thread whose epoch does not match its slot's tag claims the slot with one
// CAS and zeroes it, so the ring rotates without any clock thread. Lifetime
// shards are untouched by rotation — lifetime counts stay monotone no
// matter what the window does. Claim races lose at most the handful of
// window-only samples in flight during a rotation (never lifetime samples);
// snapshots sum only slots whose tag falls inside the window, so stale
// epochs are invisible rather than zeroed lazily.
class Histogram {
 public:
  static constexpr size_t kFiniteBuckets = 65;
  static constexpr int kWindowEpochs = 6;
  static constexpr uint64_t kWindowEpochNs = 10'000'000'000ull;  // 10 s

  void Record(double value) { RecordAt(value, NowNs()); }
  // Same, with an injected timestamp for the window epoch (tests virtualize
  // time, and a TraceSpan reuses its end read; the lifetime shards don't
  // care).
  void RecordAt(double value, uint64_t now_ns);

  // Upper bounds of the finite buckets (the overflow bucket is implicit).
  static const std::vector<double>& bounds();

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    std::vector<double> bounds;         // finite bucket upper bounds
    std::vector<uint64_t> buckets;      // size bounds.size() + 1 (overflow last)

    double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
    // q in [0, 1]; returns the upper bound of the bucket containing the
    // ceil(q * count)-th smallest sample (overflow reports the top bound).
    double Quantile(double q) const;
  };
  Snapshot TakeSnapshot() const;
  // Sums the ring slots whose epoch is within the window ending at `now_ns`.
  Snapshot TakeWindowSnapshot(uint64_t now_ns) const;

 private:
  static constexpr uint64_t kEmptyEpoch = ~0ull;

  struct alignas(64) Shard {
    std::atomic<double> sum{0.0};
    std::atomic<uint64_t> count{0};
    std::array<std::atomic<uint64_t>, kFiniteBuckets + 1> buckets{};  // overflow last
  };
  using Shards = std::array<Shard, kShards>;
  struct WindowSlot {
    std::atomic<uint64_t> epoch{kEmptyEpoch};
    Shards shards;
  };

  static size_t BucketIndex(double value);
  static void Add(Shard& shard, size_t bucket, double value);
  static void SumInto(const Shards& shards, Snapshot& snap);
  void WindowRecord(size_t bucket, double value, uint64_t now_ns);

  Shards shards_;
  // One spare slot beyond the window, so the slot recycled for the next
  // epoch is never one the current window still reads.
  std::array<WindowSlot, kWindowEpochs + 1> window_;
};

// Sorted label set rendered Prometheus-style. Keys are sorted (and
// duplicates rejected by last-wins) at registration time so the same label
// set always maps to the same instrument and the same exposition text.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Identity + metadata shared by all samples of one instrument.
struct MetricInfo {
  std::string name;
  std::string labels;  // rendered `k="v",k2="v2"`; empty when unlabeled
  std::string help;

  // `name{labels}` — the registry key and the exposition series name.
  std::string Key() const {
    return labels.empty() ? name : name + "{" + labels + "}";
  }
};

struct CounterSample {
  MetricInfo info;
  uint64_t value = 0;
};
struct GaugeSample {
  MetricInfo info;
  double value = 0.0;
};
struct HistogramSample {
  MetricInfo info;
  Histogram::Snapshot hist;    // lifetime, monotone
  Histogram::Snapshot window;  // sliding window ending at collection time
};

// A consistent-enough view of a registry for export: every sample is read
// with relaxed loads while writers keep writing. Sorted by (name, labels).
struct RegistrySnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

// Named instruments, get-or-create. Instrument pointers are stable for the
// registry's lifetime; resolve once and hold the pointer. Asking for an
// existing name with a different instrument type throws std::logic_error.
// `Global()` is the process-wide registry; components default to it but
// accept an injected registry so tests can assert in isolation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name, Labels labels = {},
                      std::string_view help = "");
  Gauge& GetGauge(std::string_view name, Labels labels = {},
                  std::string_view help = "");
  Histogram& GetHistogram(std::string_view name, Labels labels = {},
                          std::string_view help = "");

  RegistrySnapshot Collect() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    MetricInfo info;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& GetOrCreate(std::string_view name, Labels&& labels, std::string_view help,
                     Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // keyed by MetricInfo::Key()
};

}  // namespace rc::obs

#endif  // RC_SRC_OBS_METRICS_H_
