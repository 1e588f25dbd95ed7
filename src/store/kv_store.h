// The "existing highly available store" RC publishes models and feature data
// into (paper Figure 9). In production this is a replicated store present in
// each datacenter; here it is an in-process, thread-safe, versioned blob
// store with (optional) simulated access latency calibrated to the paper's
// measurements (median 2.9 ms / P99 5.6 ms for an 850-byte record) and an
// availability switch so tests can exercise the client's outage fallbacks.
//
// Concurrency (DESIGN.md "Admission-controlled caching & sharded store"):
// keys are hash-partitioned across shards, each with its own mutex and blob
// map, so concurrent clients loading *different* models no longer serialize
// during publish-heavy windows. Versions come from one store-global atomic
// counter consumed only by successful writes — globally unique and
// increasing, hence monotonic per key (writes to one key serialize on its
// shard lock and draw ever-larger tickets). Push notifications are delivered
// outside all locks but in per-shard ticket order, so a listener observes
// each key's versions in the order they were assigned.
#ifndef RC_SRC_STORE_KV_STORE_H_
#define RC_SRC_STORE_KV_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/metrics.h"

namespace rc::store {

// Lognormal latency profile parameterized by median and P99.
struct LatencyProfile {
  double median_us = 2900.0;
  double p99_us = 5600.0;

  // One latency draw in microseconds.
  double SampleUs(Rng& rng) const;
};

struct VersionedBlob {
  uint64_t version = 0;
  std::vector<uint8_t> data;
  // CRC32 over `data`, stamped by KvStore::Put / DiskCache at write time.
  // Consumers verify with VerifyBlob before decoding; a mismatch means the
  // payload was corrupted or torn somewhere between publish and load.
  uint32_t crc = 0;
};

// Recomputes the payload checksum; true iff it matches the stamped CRC.
bool VerifyBlob(const VersionedBlob& blob);

class KvStore {
 public:
  struct Options {
    bool simulate_latency = false;  // busy-sleep on Get/Put when true
    LatencyProfile latency;
    uint64_t latency_seed = 99;
    // Key-hash partitions, each with its own mutex and blob map. Rounded to
    // a power of two, clamped to [1, 256]. 1 reproduces the old
    // global-mutex layout (the bench control arm).
    size_t shards = 16;
    // Registry receiving the rc_store_* instruments; null = process-global.
    rc::obs::MetricsRegistry* metrics = nullptr;
  };

  KvStore() : KvStore(Options{}) {}
  explicit KvStore(Options options);
  ~KvStore();

  // Stores bytes under key; returns the new (monotonic per key) version, or
  // 0 if the store is unavailable (the write is dropped, no version is
  // consumed, and listeners are not notified — an outage affects writes like
  // it affects reads). Versions are store-global: unique and increasing
  // across keys, not dense per key.
  uint64_t Put(const std::string& key, std::vector<uint8_t> data);

  // Read outcome, so callers can react differently to "the key is absent"
  // (authoritative miss) versus "the store could not answer" (outage or
  // injected I/O error — retry / fall back to a local mirror).
  enum class GetStatus { kOk, kNotFound, kUnavailable, kError };
  struct GetResult {
    GetStatus status = GetStatus::kNotFound;
    VersionedBlob blob;

    bool ok() const { return status == GetStatus::kOk; }
    // A failure the caller may retry or degrade around, as opposed to a miss.
    bool failed() const {
      return status == GetStatus::kUnavailable || status == GetStatus::kError;
    }
  };

  // Latest blob for key, with an explicit status.
  GetResult TryGet(const std::string& key) const;

  // Latest blob for key; nullopt if absent or the store is unavailable.
  std::optional<VersionedBlob> Get(const std::string& key) const;

  // Matching keys across all shards, in sorted order.
  std::vector<std::string> ListKeys(const std::string& prefix = "") const;

  // Simulates an outage: Get/ListKeys return empty until restored.
  void SetAvailable(bool available);
  bool available() const;

  // Push channel: listeners are invoked (synchronously, outside every store
  // lock) after each successful Put, in per-shard version order. Returns a
  // subscription id. Listeners may read back into the store; they must not
  // Put (delivery order is enforced with a per-shard ticket a re-entrant
  // Put would wait on — self-deadlock) and must not Unsubscribe themselves.
  using Listener = std::function<void(const std::string& key, const VersionedBlob& blob)>;
  int Subscribe(Listener listener);
  // Removes the listener AND blocks until every in-flight invocation of it
  // has returned, so the caller may destroy captured state immediately
  // afterwards. Must not be called from inside the listener itself (that
  // would self-deadlock).
  void Unsubscribe(int id);

  size_t key_count() const;

  size_t shard_count() const { return shard_mask_ + 1; }

 private:
  // A listener plus its in-flight invocation count; shared between the
  // registry and dispatching Put calls so Unsubscribe can wait for the
  // count to drain after removing the registry entry.
  struct ListenerEntry {
    Listener fn;
    int in_flight = 0;  // guarded by listeners_mu_
  };

  // One key partition. `mu` guards the blob map and ticket issuance; the
  // notify pair serializes listener delivery into ticket order without
  // holding `mu` across user code.
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, VersionedBlob> blobs;
    uint64_t next_ticket = 0;  // guarded by mu, issued with the version
    std::mutex notify_mu;
    std::condition_variable notify_cv;
    uint64_t serving_ticket = 0;  // guarded by notify_mu
  };

  Shard& ShardFor(const std::string& key) const;
  void MaybeSleep() const;

  // rc_store_* instruments; resolved once at construction, relaxed writes.
  struct Instruments {
    rc::obs::Counter* puts;
    rc::obs::Counter* puts_dropped;  // outage / injected error: write lost
    rc::obs::Counter* gets_ok;
    rc::obs::Counter* gets_notfound;
    rc::obs::Counter* gets_failed;  // unavailable or injected error
    rc::obs::Gauge* keys;
    rc::obs::Histogram* get_latency_us;
  };

  Options options_;
  Instruments m_{};
  std::unique_ptr<Shard[]> shards_;
  size_t shard_mask_ = 0;
  std::atomic<uint64_t> version_counter_{0};
  std::atomic<bool> available_{true};
  std::atomic<uint64_t> key_count_{0};

  mutable std::mutex latency_mu_;
  mutable Rng latency_rng_;

  mutable std::mutex listeners_mu_;
  std::map<int, std::shared_ptr<ListenerEntry>> listeners_;
  std::condition_variable listeners_drained_;
  int next_listener_id_ = 1;
};

}  // namespace rc::store

#endif  // RC_SRC_STORE_KV_STORE_H_
