// The Resource Central client library (the paper's "client DLL", Table 2):
// a thread-safe, in-process prediction server. Given a model name and client
// inputs it returns a {bucket, confidence} prediction or a no-prediction
// flag. It caches prediction results (hash of model name + client inputs),
// models, and per-subscription feature data in memory, mirrors them to a
// local disk cache with expiry, and supports both caching regimes from the
// paper:
//
//  * push (default): RC pushes new models/feature data; a miss in the memory
//    caches is answered with no-prediction (e.g. a brand-new subscription).
//  * pull: misses fetch from the store on demand — either synchronously, or
//    (paper's configuration for latency-critical clients) returning
//    no-prediction immediately while the fetch fills the cache for next time.
//
// The disk cache is consulted only when the store is unavailable, and never
// when the entry has expired.
//
// Concurrency model (see DESIGN.md "Client concurrency model"): the result
// cache answers first, and everything after a miss runs against an
// immutable state snapshot. Models, featurizers, and feature data live in a
// `const ClientState`; writers (push listener, pull-mode fills,
// ForceReloadCache, FlushCache) copy the current state, mutate the copy
// under `writer_mu_`, and publish it behind a small mutex that readers hold
// only to copy the pointer. The result cache is an rc::cache::ShardedCache —
// W-TinyLFU admission, per-insert eviction, and a lock-free (seqlock) hit
// path, so a result-cache hit performs zero mutex acquisitions and never
// loads the snapshot (see src/cache/sharded_cache.h). Cached results carry a
// generation stamp instead of being flushed: a push bumps the generation of
// what it changed (one subscription slot, or the whole client), and an entry
// whose stamp no longer matches is a miss.
//
// PredictSingle and PredictMany share one miss path (ScoreMisses), run on
// the caller's thread: one snapshot load per call, then every row the
// snapshot can answer is featurized and scored in one
// ExecEngine::PredictBatch walk. In push mode without a disk mirror, a
// subscription or model absent from the snapshot is answered with a cached
// no-prediction straight from that snapshot — no lock, no copy; otherwise
// the row takes the serialized fill path (PredictMiss) and is then scored
// the same way.
#ifndef RC_SRC_CORE_CLIENT_H_
#define RC_SRC_CORE_CLIENT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cache/sharded_cache.h"
#include "src/common/hashing.h"
#include "src/core/featurizer.h"
#include "src/core/model_spec.h"
#include "src/core/prediction.h"
#include "src/ml/classifier.h"
#include "src/ml/exec_engine.h"
#include "src/obs/metrics.h"
#include "src/store/disk_cache.h"
#include "src/store/kv_store.h"

namespace rc::common {
class Clock;
}  // namespace rc::common

namespace rc::core {

enum class CacheMode { kPush, kPull };

struct ClientConfig {
  CacheMode mode = CacheMode::kPush;
  // Pull mode only: return no-prediction on a model/feature-data cache miss
  // and fill the cache as a side effect, keeping store latency off the
  // prediction critical path.
  bool pull_never_blocks = false;
  // Result-cache entries (entries are tiny — a bucket and a score — so the
  // default is generous). The budget is split evenly across the cache
  // shards; overflow evicts one entry per insert via the admission policy —
  // never a flush. 0 disables the result cache entirely (every
  // PredictSingle executes).
  size_t result_cache_capacity = 1 << 20;
  // Local disk cache directory; empty disables the disk cache.
  std::string disk_cache_dir;
  int64_t disk_expiry_seconds = 7 * 24 * 3600;

  // --- graceful degradation (the paper's "the client DLL must never impact
  // the caller") ---
  // Store read errors are retried with doubling backoff before the client
  // gives up and falls back to its disk mirror / last-good snapshot.
  int store_max_retries = 2;
  int64_t store_retry_backoff_us = 200;
  // Budget for a full reload (Initialize / ForceReloadCache) across all
  // keys; on expiry the reload stops and keeps what it has. 0 = unbounded.
  int64_t reload_timeout_us = 0;
  // Circuit breaker: after this many consecutive store failures the client
  // stops contacting the store for breaker_open_us, then lets one probe
  // through (half-open). <= 0 disables the breaker.
  int breaker_failure_threshold = 5;
  int64_t breaker_open_us = 100'000;

  // Injected time source for retry backoff, the circuit breaker and reload
  // deadlines. Null uses MonotonicClock::Instance(); tests substitute a
  // VirtualClock. Must outlive the client.
  rc::common::Clock* clock = nullptr;

  // --- observability (DESIGN.md "Observability") ---
  // Registry receiving this client's `rc_client_*` instruments. Null (the
  // default) gives the client a private registry, so per-instance stats()
  // keeps its exact per-client semantics; point several clients at a shared
  // registry (e.g. obs::MetricsRegistry::Global()) to aggregate them —
  // get-or-create then merges same-named instruments.
  rc::obs::MetricsRegistry* metrics = nullptr;
  // Label set stamped on every instrument this client registers (lets
  // multiple clients share a registry without merging, e.g. {"client","a"}).
  rc::obs::Labels metric_labels;
};

// Why the client is currently serving from stale/partial state. kNone means
// healthy; anything else marks a degraded window. The reason clears on the
// next fully successful store interaction (clean ingest or reload).
enum class DegradedReason : uint8_t {
  kNone = 0,
  kStoreOutage = 1,   // store reported unavailable
  kStoreErrors = 2,   // read errors / retries exhausted / reload timeout
  kCorruptData = 3,   // checksum or decode failure on a received blob
  kSpecMismatch = 4,  // a received spec and model disagree; the last pair that agreed serves
};
const char* ToString(DegradedReason reason);

// Point-in-time serving-health view for /healthz (DESIGN.md "Tracing &
// introspection"): the degradation state plus per-model snapshot identity,
// so an operator can see not just *that* the client is degraded but which
// models are stale and since when.
struct ModelHealth {
  std::string name;
  uint64_t spec_version = 0;   // ModelSpec.version of the active spec
  uint64_t blob_version = 0;   // store version of the last blob ingested
  uint64_t loaded_at_ns = 0;   // obs::NowNs() when that blob was published
  bool ready = false;          // an agreeing spec and model both present
};

struct HealthSnapshot {
  DegradedReason degraded = DegradedReason::kNone;
  bool breaker_open = false;
  int consecutive_store_failures = 0;
  std::vector<ModelHealth> models;

  bool healthy() const { return degraded == DegradedReason::kNone && !breaker_open; }
};

struct ClientStats {
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t model_executions = 0;
  uint64_t store_fetches = 0;
  uint64_t disk_hits = 0;
  uint64_t no_predictions = 0;
  // Degradation counters: how often the store failed us and how we coped.
  uint64_t store_errors = 0;      // failed store reads (before retries)
  uint64_t store_retries = 0;     // retry attempts after an error
  uint64_t corrupt_blobs = 0;     // blobs rejected by checksum verification
  uint64_t decode_failures = 0;   // blobs with a valid CRC that failed decode
  uint64_t breaker_trips = 0;     // circuit-breaker open transitions
  uint64_t reload_timeouts = 0;   // full reloads cut short by the deadline
  DegradedReason degraded_reason = DegradedReason::kNone;

  bool degraded() const { return degraded_reason != DegradedReason::kNone; }
};

class Client {
 public:
  // The store pointer may be null (fully offline client relying on its disk
  // cache). The store must outlive the client.
  Client(rc::store::KvStore* store, ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Loads specs/models/feature data (push mode eagerly; pull mode lazily)
  // and subscribes to store pushes. Returns true if the client is usable —
  // which includes a cold pull-mode start with an empty cache.
  bool Initialize();

  // Names of models currently available to this client.
  std::vector<std::string> GetAvailableModels() const;

  // One prediction; never throws on missing data — returns no-prediction.
  Prediction PredictSingle(const std::string& model_name, const ClientInputs& inputs);

  // Batched predictions (Table 2's predict_many).
  std::vector<Prediction> PredictMany(const std::string& model_name,
                                      std::span<const ClientInputs> inputs);

  // Refreshes memory and disk caches from the store.
  void ForceReloadCache();

  // Drops memory and disk caches.
  void FlushCache();

  // Compatibility view over the registry-backed instruments below. With the
  // default private registry this is exactly this client's activity.
  ClientStats stats() const;

  // Serving-health snapshot for the admin /healthz endpoint: degradation
  // state, circuit-breaker position, and per-model version/age. Takes
  // writer_mu_ briefly for the breaker fields — admin path, not hot path.
  HealthSnapshot Health() const;

  // Current degradation state, lock-free (the same value stats() reports).
  DegradedReason degraded_reason() const {
    return static_cast<DegradedReason>(
        degraded_reason_.load(std::memory_order_relaxed));
  }

  // The registry holding this client's instruments — the config-supplied one
  // or the private default. Export with obs::PrometheusText / obs::JsonText.
  rc::obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct LoadedModel {
    // The served pair. Whenever both halves are present they agree (same
    // row width, same label set; see Agree in client.cc): the check runs
    // once per ingest, so the hot path can trust it.
    ModelSpec spec;
    std::shared_ptr<const rc::ml::Classifier> model;
    std::shared_ptr<const Featurizer> featurizer;
    // The model's compiled execution engine, resolved once at ingest so the
    // batched hot path needs no virtual dispatch. Owned by `model` (which
    // this entry holds). Never null while `model` is set: DeserializeTagged
    // only yields RandomForest and GradientBoostedTrees, which always compile
    // one.
    const rc::ml::ExecEngine* engine = nullptr;
    // Snapshot identity for /healthz: the store version of the last blob
    // applied to this entry and when it was published.
    uint64_t blob_version = 0;
    uint64_t loaded_at_ns = 0;
    // A newer half that disagrees with the served pair's other half, such as
    // a spec published beside an older model. Held until a partner that
    // agrees with it arrives; never served.
    std::optional<ModelSpec> pending_spec;
    std::shared_ptr<const rc::ml::Classifier> pending_model;

    bool ready() const { return model != nullptr && featurizer != nullptr; }
    bool mismatched() const { return pending_spec.has_value() || pending_model != nullptr; }
  };

  // Everything the prediction hot path reads, as one immutable snapshot.
  // Entries are shared between successive snapshots (copy-on-write), so
  // publishing an update copies two maps of pointers, never a model.
  struct ClientState {
    std::unordered_map<std::string, std::shared_ptr<const LoadedModel>> models;
    std::unordered_map<uint64_t, std::shared_ptr<const SubscriptionFeatures>> features;

    const LoadedModel* FindReadyModel(const std::string& name) const;
    const SubscriptionFeatures* FindFeatures(uint64_t subscription_id) const;
  };
  using StatePtr = std::shared_ptr<const ClientState>;

  // Registry-backed instruments (rc_client_* family). Pointers are resolved
  // once at construction and stable for the registry's lifetime; every write
  // is a relaxed shard increment, so the hot path and stats() need no lock.
  struct Instruments {
    rc::obs::Counter* state_publishes;
    rc::obs::Counter* result_hits;
    rc::obs::Counter* result_misses;
    rc::obs::Counter* model_executions;
    rc::obs::Counter* store_fetches;
    rc::obs::Counter* disk_hits;
    rc::obs::Counter* no_predictions;
    rc::obs::Counter* store_errors;
    rc::obs::Counter* store_retries;
    rc::obs::Counter* corrupt_blobs;
    rc::obs::Counter* decode_failures;
    rc::obs::Counter* breaker_trips;
    rc::obs::Counter* reload_timeouts;
    rc::obs::Gauge* degraded_reason;            // numeric DegradedReason
    rc::obs::Histogram* predict_latency_us;     // sampled PredictSingle latency
    rc::obs::Histogram* store_read_latency_us;  // store reads, retries included
    rc::obs::Histogram* batch_size;             // inputs per PredictMany call
  };
  void RegisterInstruments();

  // A result-cache value: the prediction plus the generation stamp it was
  // computed under, packed into the cache's 16-byte value.
  struct CachedResult {
    double score;
    uint32_t stamp;
    int16_t bucket;
    uint8_t valid;
  };
  static_assert(sizeof(CachedResult) == 16);

  // --- read side ---
  // Copies the published snapshot pointer: once per miss call, never on a
  // hit. (libstdc++'s std::atomic<std::shared_ptr> is not lock-free either,
  // and its lock-bit internals are opaque to ThreadSanitizer.)
  StatePtr LoadState() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return state_;
  }
  // Generation stamps. Read the client generation first, then the slot's,
  // and both before loading the snapshot a result is computed from.
  uint32_t ClientGeneration() const { return client_gen_.load(std::memory_order_acquire); }
  uint32_t Stamp(uint32_t client_gen, uint64_t subscription_id) const;
  uint32_t Stamp(uint64_t subscription_id) const {
    return Stamp(ClientGeneration(), subscription_id);
  }
  // Lock-free on hit (rc::cache seqlock probe — zero mutex acquisitions). An
  // entry stamped with any other generation is a miss.
  std::optional<Prediction> ResultCacheLookup(uint64_t key, uint32_t stamp) const;
  void ResultCacheInsert(uint64_t key, const Prediction& prediction, uint32_t stamp);
  // Lookup with hit/miss accounting; a cached no-prediction also counts as
  // a no-prediction answer.
  std::optional<Prediction> CountedLookup(uint64_t key, uint32_t stamp);
  // A no-prediction for a model or subscription absent from the snapshot,
  // cached under `stamp`. Only valid when snapshot_miss_is_final_.
  Prediction FinalNone(uint64_t key, uint32_t stamp);

  // A row that missed the result cache, on its way to the scorer: the
  // inputs, the cache key and generation stamp read when the cache was
  // probed (so before any snapshot load that scores the row), and where the
  // answer goes.
  struct MissRow {
    const ClientInputs* inputs;
    uint64_t key;
    uint32_t stamp;
    Prediction* out;
  };
  // The one post-probe path, shared by PredictSingle and PredictMany and run
  // on the caller's thread. Loads the snapshot (or scores against `state`,
  // the filled state PredictMiss hands back), answers the rows it cannot
  // serve with FinalNone or PredictMiss, featurizes the rest once per
  // distinct key into one PredictBatch walk, and inserts the results into
  // the result cache. A warm call allocates nothing.
  void ScoreMisses(const std::string& model_name, std::span<const MissRow> rows,
                   StatePtr state = nullptr);

  // --- write side; all Locked methods require writer_mu_ held ---
  void PublishLocked(std::shared_ptr<ClientState> next);
  // Stale every cached result, or only those in the subscription's slot.
  // Call after the publish that changed the answers.
  void BumpClientGenerationLocked();
  void BumpSubscriptionGenerationLocked(uint64_t subscription_id);
  // Outcome of ingesting one blob. `ok` is false when the blob was rejected
  // (checksum mismatch, decode failure, unknown key family) — rejected blobs
  // never replace good state. `index_dirty` means the key was newly mirrored
  // to disk and the caller should persist the index (once per batch).
  struct IngestResult {
    bool ok = false;
    bool index_dirty = false;
  };
  IngestResult IngestLocked(ClientState& state, const std::string& key,
                            const rc::store::VersionedBlob& blob);
  // Exports rc_client_model_bytes{model,pool} for a freshly compiled engine.
  void ExportModelBytes(const std::string& name, const rc::ml::ExecEngine& engine);
  // The writer's state during a miss fill: reads see the published state
  // until the first successful ingest copies it.
  struct StateFill {
    StatePtr base;
    std::shared_ptr<ClientState> copy;  // null until something was ingested
    const ClientState& view() const { return copy != nullptr ? *copy : *base; }
  };
  bool LoadModelLocked(StateFill& fill, const std::string& model_name, bool allow_store);
  bool LoadFeaturesLocked(StateFill& fill, uint64_t subscription_id, bool allow_store);
  // Ingests into the fill, copying the base state on the first success.
  void IngestIntoFillLocked(StateFill& fill, const std::string& key,
                            const rc::store::VersionedBlob& blob, bool& index_dirty);
  std::optional<rc::store::VersionedBlob> FetchLocked(const std::string& key,
                                                      bool allow_store);
  // Store read with bounded retry + backoff behind the circuit breaker.
  // kHit fills `out`; kMiss is an authoritative absence (store healthy, key
  // not there); kFailed means the store could not answer — fall back.
  enum class StoreRead { kHit, kMiss, kFailed };
  StoreRead StoreReadLocked(const std::string& key, rc::store::VersionedBlob& out);
  // Circuit-breaker bookkeeping; all require writer_mu_ held.
  bool BreakerOpenLocked();
  void BreakerFailureLocked();
  void BreakerSuccessLocked();
  void SetDegraded(DegradedReason reason);
  // Raises kSpecMismatch while any model in `state` holds a pending half,
  // and clears it once none does.
  void UpdateSpecMismatchLocked(const ClientState& state);
  void LoadAllFromStoreLocked(ClientState& state);
  void LoadAllFromDiskLocked(ClientState& state);
  void PersistIndexLocked();
  // PredictSingle body, separated so the public entry can wrap it with the
  // sampled latency measurement.
  Prediction PredictSingleImpl(const std::string& model_name, const ClientInputs& inputs);
  // Slow path: a model or feature record was missing from the snapshot and
  // the store or disk mirror may supply it (pull mode, or a disk mirror).
  // Returns the state that can now answer the row, or null after answering
  // it with an uncached no-prediction.
  StatePtr PredictMiss(const std::string& model_name, const MissRow& row);

  rc::store::KvStore* store_;
  ClientConfig config_;
  rc::common::Clock* clock_;  // config_.clock or MonotonicClock::Instance()
  std::unique_ptr<rc::store::DiskCache> disk_;

  // The published snapshot. Written under writer_mu_ and state_mu_, so
  // writers read it under writer_mu_ alone; readers copy it under state_mu_.
  mutable std::mutex state_mu_;
  StatePtr state_;
  // Push mode without a disk mirror: a model or subscription missing from
  // the snapshot can only arrive by a push, so the miss is answered (and
  // cached) as a no-prediction without taking writer_mu_.
  bool snapshot_miss_is_final_ = false;
  // Admission-controlled result cache with a lock-free hit path. Entries
  // carry the generation stamp they were computed under (see Stamp).
  // Constructed after the metrics registry is resolved (rc_cache_* lands in
  // the same registry as this client's rc_client_* instruments).
  std::unique_ptr<rc::cache::ShardedCache<CachedResult>> result_cache_;
  // Generations: a cached result is current iff its stamp equals
  // client_gen_ + sub_gen_[slot of its subscription] (mod 2^32). Bumped
  // under writer_mu_, after the publish, with release ordering.
  static constexpr size_t kSubscriptionSlots = 1024;  // power of two
  static size_t SlotOf(uint64_t subscription_id) {
    return HashU64(subscription_id) & (kSubscriptionSlots - 1);
  }
  std::atomic<uint32_t> client_gen_{0};
  std::array<std::atomic<uint32_t>, kSubscriptionSlots> sub_gen_{};

  // Serializes all state transitions (push listener, pull fills, reloads)
  // and guards the disk mirror + known-key index below. Mutable so the
  // const Health() accessor can read the breaker fields it guards.
  mutable std::mutex writer_mu_;
  std::vector<std::string> known_keys_;             // disk-index persistence order
  std::unordered_set<std::string> known_keys_set_;  // O(1) duplicate check
  int store_subscription_ = -1;

  // Circuit-breaker state; guarded by writer_mu_ (all store access holds it).
  // The open-until deadline is in clock_->NowUs() microseconds.
  int consecutive_store_failures_ = 0;
  bool breaker_open_ = false;
  int64_t breaker_open_until_us_ = 0;

  // Current degradation reason, readable from stats() without a lock
  // (mirrored into the rc_client_degraded_reason gauge).
  std::atomic<uint8_t> degraded_reason_{0};

  std::unique_ptr<rc::obs::MetricsRegistry> owned_metrics_;  // when config has none
  rc::obs::MetricsRegistry* metrics_ = nullptr;
  Instruments m_{};
};

}  // namespace rc::core

#endif  // RC_SRC_CORE_CLIENT_H_
