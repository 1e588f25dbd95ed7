#include "src/core/client.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/common/faults.h"
#include "src/common/hashing.h"
#include "src/ml/exec_engine.h"
#include "src/obs/trace_context.h"

namespace rc::core {

using rc::store::KvStore;
using rc::store::VersionedBlob;

const char* ToString(DegradedReason reason) {
  switch (reason) {
    case DegradedReason::kNone: return "none";
    case DegradedReason::kStoreOutage: return "store-outage";
    case DegradedReason::kStoreErrors: return "store-errors";
    case DegradedReason::kCorruptData: return "corrupt-data";
    case DegradedReason::kSpecMismatch: return "spec-mismatch";
  }
  return "unknown";
}

namespace {
// Disk-cache key holding the list of blob keys the client has seen, so a
// restarted client can reload everything while the store is down.
constexpr char kIndexKey[] = "__rc_client_index__";

// PredictSingle latency goes into rc_client_predict_latency_us once per this
// many calls on each thread.
constexpr uint32_t kPredictLatencySampleEvery = 64;

std::vector<uint8_t> SerializeKeys(const std::vector<std::string>& keys) {
  rc::ml::ByteWriter w;
  w.U32(static_cast<uint32_t>(keys.size()));
  for (const auto& key : keys) w.String(key);
  return w.TakeBytes();
}

// A spec and a model agree when the row the spec's featurizer writes is the
// row the model's engine reads, and the model scores exactly the spec
// metric's buckets. Scoring a pair that disagrees would read past the row.
bool Agree(const ModelSpec& spec, const rc::ml::Classifier& model) {
  return Featurizer(spec.metric, spec.encoding).num_features() == spec.num_features &&
         static_cast<uint32_t>(model.engine()->num_features()) == spec.num_features &&
         model.num_classes() == NumBuckets(spec.metric);
}

std::vector<std::string> DeserializeKeys(const std::vector<uint8_t>& bytes) {
  rc::ml::ByteReader r(bytes);
  uint32_t n = r.U32();
  std::vector<std::string> keys;
  keys.reserve(n);
  for (uint32_t i = 0; i < n; ++i) keys.push_back(r.String());
  return keys;
}
}  // namespace

const Client::LoadedModel* Client::ClientState::FindReadyModel(
    const std::string& name) const {
  auto it = models.find(name);
  if (it == models.end() || !it->second->ready()) return nullptr;
  return it->second.get();
}

const SubscriptionFeatures* Client::ClientState::FindFeatures(
    uint64_t subscription_id) const {
  auto it = features.find(subscription_id);
  return it == features.end() ? nullptr : it->second.get();
}

Client::Client(rc::store::KvStore* store, ClientConfig config)
    : store_(store), config_(std::move(config)) {
  clock_ = config_.clock != nullptr ? config_.clock
                                    : rc::common::MonotonicClock::Instance();
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<rc::obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  RegisterInstruments();
  if (!config_.disk_cache_dir.empty()) {
    disk_ = std::make_unique<rc::store::DiskCache>(config_.disk_cache_dir,
                                                   config_.disk_expiry_seconds, metrics_);
  }
  snapshot_miss_is_final_ = config_.mode == CacheMode::kPush && disk_ == nullptr;
  // Admission-controlled result cache with a lock-free hit path (capacity 0
  // disables it: lookups miss, inserts drop). Shares this client's registry
  // so rc_cache_* shows up next to rc_client_* in /metrics and /varz.
  {
    rc::cache::CacheOptions cache_options;
    cache_options.capacity = config_.result_cache_capacity;
    cache_options.metrics = metrics_;
    cache_options.metric_labels = config_.metric_labels;
    result_cache_ =
        std::make_unique<rc::cache::ShardedCache<CachedResult>>(cache_options);
  }
  state_ = std::make_shared<const ClientState>();
}

void Client::RegisterInstruments() {
  auto counter = [this](std::string_view name, std::string_view help) {
    return &metrics_->GetCounter(name, config_.metric_labels, help);
  };
  m_.state_publishes = counter("rc_client_state_publishes", "state snapshots published");
  m_.result_hits = counter("rc_client_result_hits", "result-cache hits");
  m_.result_misses = counter("rc_client_result_misses", "result-cache misses");
  m_.model_executions = counter("rc_client_model_executions", "model executions");
  m_.store_fetches = counter("rc_client_store_fetches", "successful store reads");
  m_.disk_hits = counter("rc_client_disk_hits", "disk-mirror fallback hits");
  m_.no_predictions = counter("rc_client_no_predictions", "no-prediction answers");
  m_.store_errors = counter("rc_client_store_errors", "failed store reads (pre-retry)");
  m_.store_retries = counter("rc_client_store_retries", "store read retry attempts");
  m_.corrupt_blobs = counter("rc_client_corrupt_blobs", "blobs rejected by checksum");
  m_.decode_failures =
      counter("rc_client_decode_failures", "valid-CRC blobs that failed decode");
  m_.breaker_trips = counter("rc_client_breaker_trips", "circuit-breaker open transitions");
  m_.reload_timeouts = counter("rc_client_reload_timeouts", "reloads cut short by deadline");
  m_.degraded_reason = &metrics_->GetGauge(
      "rc_client_degraded_reason", config_.metric_labels,
      "current DegradedReason (0 none, 1 outage, 2 errors, 3 corrupt, 4 spec mismatch)");
  m_.predict_latency_us = &metrics_->GetHistogram(
      "rc_client_predict_latency_us", config_.metric_labels,
      "sampled PredictSingle latency (us)");
  m_.store_read_latency_us = &metrics_->GetHistogram(
      "rc_client_store_read_latency_us", config_.metric_labels,
      "per-call store read latency incl. retries (us)");
  m_.batch_size = &metrics_->GetHistogram(
      "rc_client_batch_size", config_.metric_labels,
      "inputs per PredictMany call");
}

Client::~Client() {
  // Unsubscribe drains in-flight listener invocations, so after this returns
  // no store thread can call back into this (soon-destroyed) client.
  if (store_ != nullptr && store_subscription_ >= 0) {
    store_->Unsubscribe(store_subscription_);
  }
}

bool Client::Initialize() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (store_ != nullptr) {
    if (config_.mode == CacheMode::kPush) {
      auto next = std::make_shared<ClientState>();
      if (store_->available()) {
        LoadAllFromStoreLocked(*next);
      } else if (disk_ != nullptr) {
        // Cold start during an outage: rebuild caches from the disk mirror.
        LoadAllFromDiskLocked(*next);
      }
      PublishLocked(std::move(next));
      BumpClientGenerationLocked();
      // Keep caches fresh as RC publishes new artifacts.
      store_subscription_ = store_->Subscribe([this](const std::string& key,
                                                     const VersionedBlob& blob) {
        std::lock_guard<std::mutex> push_lock(writer_mu_);
        auto updated = std::make_shared<ClientState>(*state_);
        IngestResult ingest = IngestLocked(*updated, key, blob);
        // A corrupt push never replaces good state: keep serving the
        // last-good snapshot (and its cached results) untouched.
        if (!ingest.ok) return;
        if (ingest.index_dirty) PersistIndexLocked();
        PublishLocked(std::move(updated));
        // New feature data changes only its subscription's answers; a new
        // model or spec can change any answer.
        uint64_t subscription_id = 0;
        if (ParseFeatureKey(key, subscription_id)) {
          BumpSubscriptionGenerationLocked(subscription_id);
        } else {
          BumpClientGenerationLocked();
        }
      });
    }
    return true;
  }
  // Store-less client: disk cache only.
  if (disk_ == nullptr) return false;
  if (disk_->Get(kIndexKey) == std::nullopt) return false;
  auto next = std::make_shared<ClientState>();
  LoadAllFromDiskLocked(*next);
  PublishLocked(std::move(next));
  BumpClientGenerationLocked();
  return true;
}

void Client::PublishLocked(std::shared_ptr<ClientState> next) {
  rc::obs::TraceSpan span("client/publish_state");
  StatePtr published(std::move(next));
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    state_.swap(published);
  }
  // `published` now holds the old state; it is released outside state_mu_.
  m_.state_publishes->Increment();
}

// Publish first, then bump with release: a reader whose acquire load sees
// the new generation also sees the new snapshot. Bumps are serialized by
// writer_mu_, which is what makes stamps read as (client, then slot) safe to
// compare; see DESIGN.md "Client concurrency model".
void Client::BumpClientGenerationLocked() {
  client_gen_.fetch_add(1, std::memory_order_release);
}

void Client::BumpSubscriptionGenerationLocked(uint64_t subscription_id) {
  sub_gen_[SlotOf(subscription_id)].fetch_add(1, std::memory_order_release);
}

uint32_t Client::Stamp(uint32_t client_gen, uint64_t subscription_id) const {
  // Each bump raises the sum by exactly one, so a stale stamp can only
  // match again after 2^32 bumps.
  return client_gen + sub_gen_[SlotOf(subscription_id)].load(std::memory_order_acquire);
}

std::optional<Prediction> Client::ResultCacheLookup(uint64_t key, uint32_t stamp) const {
  // Seqlock probe: zero mutex acquisitions on a hit (sharded_cache.h).
  auto cached = result_cache_->Lookup(key);
  if (!cached || cached->stamp != stamp) return std::nullopt;
  Prediction prediction;
  prediction.valid = cached->valid != 0;
  prediction.bucket = cached->bucket;
  prediction.score = cached->score;
  return prediction;
}

void Client::ResultCacheInsert(uint64_t key, const Prediction& prediction,
                               uint32_t stamp) {
  // A stale entry under the same key is overwritten in place. The stamp,
  // not the cache's epoch token, keeps stale results from being served, so
  // the token is always the current one. Overflow evicts one entry via
  // W-TinyLFU — never a flush.
  CachedResult value{};
  value.score = prediction.score;
  value.stamp = stamp;
  value.bucket = static_cast<int16_t>(prediction.bucket);
  value.valid = prediction.valid ? 1 : 0;
  result_cache_->Insert(key, value, result_cache_->epoch());
}

std::optional<Prediction> Client::CountedLookup(uint64_t key, uint32_t stamp) {
  auto cached = ResultCacheLookup(key, stamp);
  if (!cached) {
    m_.result_misses->Increment();
    return std::nullopt;
  }
  m_.result_hits->Increment();
  if (!cached->valid) m_.no_predictions->Increment();
  return cached;
}

Prediction Client::FinalNone(uint64_t key, uint32_t stamp) {
  m_.no_predictions->Increment();
  ResultCacheInsert(key, Prediction::None(), stamp);
  return Prediction::None();
}

void Client::SetDegraded(DegradedReason reason) {
  degraded_reason_.store(static_cast<uint8_t>(reason), std::memory_order_relaxed);
  m_.degraded_reason->Set(static_cast<double>(static_cast<uint8_t>(reason)));
}

void Client::UpdateSpecMismatchLocked(const ClientState& state) {
  const bool mismatched = std::any_of(state.models.begin(), state.models.end(),
                                      [](const auto& m) { return m.second->mismatched(); });
  if (mismatched) {
    SetDegraded(DegradedReason::kSpecMismatch);
  } else if (degraded_reason() == DegradedReason::kSpecMismatch) {
    SetDegraded(DegradedReason::kNone);
  }
}

bool Client::BreakerOpenLocked() {
  if (!breaker_open_) return false;
  if (clock_->NowUs() < breaker_open_until_us_) return true;
  // Half-open: let one probe through. A success closes the breaker; one more
  // failure re-opens it immediately.
  breaker_open_ = false;
  consecutive_store_failures_ = std::max(0, config_.breaker_failure_threshold - 1);
  return false;
}

void Client::BreakerFailureLocked() {
  if (config_.breaker_failure_threshold <= 0) return;
  consecutive_store_failures_ += 1;
  if (!breaker_open_ && consecutive_store_failures_ >= config_.breaker_failure_threshold) {
    breaker_open_ = true;
    breaker_open_until_us_ = clock_->NowUs() + config_.breaker_open_us;
    m_.breaker_trips->Increment();
  }
}

void Client::BreakerSuccessLocked() {
  consecutive_store_failures_ = 0;
  breaker_open_ = false;
  // A healthy store interaction ends an outage/error window; a corrupt-data
  // window only ends on a clean ingest.
  uint8_t reason = degraded_reason_.load(std::memory_order_relaxed);
  if (reason == static_cast<uint8_t>(DegradedReason::kStoreOutage) ||
      reason == static_cast<uint8_t>(DegradedReason::kStoreErrors)) {
    SetDegraded(DegradedReason::kNone);
  }
}

Client::StoreRead Client::StoreReadLocked(const std::string& key, VersionedBlob& out) {
  if (store_ == nullptr) return StoreRead::kFailed;
  if (BreakerOpenLocked()) return StoreRead::kFailed;  // don't hammer a failing store
  rc::obs::TraceSpan span("client/store_read", m_.store_read_latency_us);
  int64_t backoff_us = std::max<int64_t>(1, config_.store_retry_backoff_us);
  for (int attempt = 0;; ++attempt) {
    KvStore::GetResult result = faults::InjectError("client/store_read")
                                    ? KvStore::GetResult{KvStore::GetStatus::kError, {}}
                                    : store_->TryGet(key);
    switch (result.status) {
      case KvStore::GetStatus::kOk:
        BreakerSuccessLocked();
        m_.store_fetches->Increment();
        out = std::move(result.blob);
        return StoreRead::kHit;
      case KvStore::GetStatus::kNotFound:
        BreakerSuccessLocked();
        return StoreRead::kMiss;
      case KvStore::GetStatus::kUnavailable:
        // A reported outage is not retried: backing off cannot outlast it
        // within one call, and the breaker stops subsequent attempts.
        SetDegraded(DegradedReason::kStoreOutage);
        BreakerFailureLocked();
        return StoreRead::kFailed;
      case KvStore::GetStatus::kError:
        m_.store_errors->Increment();
        SetDegraded(DegradedReason::kStoreErrors);
        if (attempt >= config_.store_max_retries) {
          BreakerFailureLocked();
          return StoreRead::kFailed;
        }
        m_.store_retries->Increment();
        clock_->SleepUs(backoff_us);
        backoff_us *= 2;
        break;
    }
  }
}

void Client::LoadAllFromStoreLocked(ClientState& state) {
  int64_t deadline_us = std::numeric_limits<int64_t>::max();
  if (config_.reload_timeout_us > 0) {
    deadline_us = clock_->NowUs() + config_.reload_timeout_us;
  }
  bool clean = true;
  for (const std::string& key : store_->ListKeys("")) {
    if (clock_->NowUs() > deadline_us) {
      // Out of budget: stop fetching and serve what we have.
      m_.reload_timeouts->Increment();
      SetDegraded(DegradedReason::kStoreErrors);
      clean = false;
      break;
    }
    VersionedBlob blob;
    StoreRead read = StoreReadLocked(key, blob);
    if (read == StoreRead::kHit) {
      clean &= IngestLocked(state, key, blob).ok;
    } else if (read == StoreRead::kFailed) {
      clean = false;
    }
  }
  // One index rewrite per batch, not one per newly seen key.
  PersistIndexLocked();
  if (clean) SetDegraded(DegradedReason::kNone);
  UpdateSpecMismatchLocked(state);
}

void Client::LoadAllFromDiskLocked(ClientState& state) {
  auto index = disk_->Get(kIndexKey);
  if (!index) return;
  std::vector<std::string> keys;
  try {
    keys = DeserializeKeys(index->data);
  } catch (const std::exception&) {
    m_.decode_failures->Increment();
    return;  // corrupt index: nothing to restore
  }
  for (const std::string& key : keys) {
    if (auto blob = disk_->Get(key)) {
      m_.disk_hits->Increment();
      IngestLocked(state, key, *blob);
    }
  }
}

Client::IngestResult Client::IngestLocked(ClientState& state, const std::string& key,
                                          const VersionedBlob& blob) {
  IngestResult result;
  // Reject-and-fallback: a corrupt blob must never replace good state. The
  // checksum catches transport/at-rest corruption; the decode try-block
  // catches structurally invalid payloads that happen to carry a valid CRC.
  {
    rc::obs::TraceSpan verify_span("client/crc_verify");
    if (!rc::store::VerifyBlob(blob)) {
      m_.corrupt_blobs->Increment();
      SetDegraded(DegradedReason::kCorruptData);
      return result;
    }
  }
  std::optional<rc::obs::TraceSpan> decode_span;
  decode_span.emplace("client/decode");
  uint64_t subscription_id = 0;
  bool pair_key = false;  // a spec or a model
  try {
    const bool model_key = key.rfind(kModelKeyPrefix, 0) == 0;
    pair_key = model_key || key.rfind(kSpecKeyPrefix, 0) == 0;
    if (pair_key) {
      // The received half replaces its served counterpart only if it agrees
      // with the other served half (or that half has not arrived). Otherwise
      // it pairs with the pending half it agrees with, or waits as pending
      // itself while the last agreeing pair keeps serving.
      std::shared_ptr<const rc::ml::Classifier> model;
      std::optional<ModelSpec> spec;
      if (model_key) {
        model = rc::ml::Classifier::DeserializeTagged(blob.data);
      } else {
        spec = ModelSpec::Deserialize(blob.data);
      }
      const std::string name =
          model_key ? key.substr(sizeof(kModelKeyPrefix) - 1) : spec->name;
      auto entry = std::make_shared<LoadedModel>();
      if (auto it = state.models.find(name); it != state.models.end()) *entry = *it->second;
      entry->blob_version = blob.version;
      entry->loaded_at_ns = rc::obs::NowNs();
      auto set_model = [&](std::shared_ptr<const rc::ml::Classifier> m) {
        // DeserializeTagged compiled the engine on this (load) path; pin the
        // pointer so the batch hot path skips the virtual engine() lookup.
        entry->engine = m->engine();
        ExportModelBytes(name, *entry->engine);
        entry->model = std::move(m);
        entry->pending_model = nullptr;
      };
      auto set_spec = [&](ModelSpec sp) {
        entry->featurizer = std::make_shared<Featurizer>(sp.metric, sp.encoding);
        entry->spec = std::move(sp);
        entry->pending_spec.reset();
      };
      if (model_key) {
        if (entry->pending_spec && Agree(*entry->pending_spec, *model)) {
          set_spec(*entry->pending_spec);
          set_model(std::move(model));
        } else if (entry->spec.name.empty() || Agree(entry->spec, *model)) {
          set_model(std::move(model));
        } else {
          entry->pending_model = std::move(model);
        }
      } else {
        if (entry->pending_model != nullptr && Agree(*spec, *entry->pending_model)) {
          set_model(entry->pending_model);
          set_spec(std::move(*spec));
        } else if (entry->model == nullptr || Agree(*spec, *entry->model)) {
          set_spec(std::move(*spec));
        } else {
          entry->pending_spec = std::move(spec);
        }
      }
      state.models[name] = std::move(entry);
    } else if (ParseFeatureKey(key, subscription_id)) {
      state.features[subscription_id] = std::make_shared<const SubscriptionFeatures>(
          SubscriptionFeatures::Deserialize(blob.data));
    } else {
      return result;  // unknown key family
    }
  } catch (const std::exception&) {
    m_.decode_failures->Increment();
    SetDegraded(DegradedReason::kCorruptData);
    return result;
  }
  decode_span.reset();
  result.ok = true;
  // A clean ingest ends a corrupt-data degradation window.
  if (degraded_reason_.load(std::memory_order_relaxed) ==
      static_cast<uint8_t>(DegradedReason::kCorruptData)) {
    SetDegraded(DegradedReason::kNone);
  }
  if (pair_key) UpdateSpecMismatchLocked(state);
  if (disk_ == nullptr) return result;
  disk_->Put(key, blob);
  if (known_keys_set_.insert(key).second) {
    known_keys_.push_back(key);
    result.index_dirty = true;  // caller persists the index (once per batch)
  }
  return result;
}

void Client::PersistIndexLocked() {
  if (disk_ == nullptr) return;
  if (faults::InjectError("client/persist_index")) return;  // mirror is best-effort
  VersionedBlob blob;
  blob.version = 1;
  blob.data = SerializeKeys(known_keys_);
  blob.crc = Crc32(blob.data);
  disk_->Put(kIndexKey, blob);
}

std::optional<VersionedBlob> Client::FetchLocked(const std::string& key, bool allow_store) {
  if (store_ != nullptr && allow_store) {
    VersionedBlob blob;
    switch (StoreReadLocked(key, blob)) {
      case StoreRead::kHit:
        return blob;
      case StoreRead::kMiss:
        return std::nullopt;  // store healthy, key genuinely absent
      case StoreRead::kFailed:
        break;  // outage / errors / open breaker: degrade to the disk mirror
    }
  }
  // Store down (or absent): the disk cache is the fallback.
  if (disk_ != nullptr) {
    if (auto blob = disk_->Get(key)) {
      m_.disk_hits->Increment();
      return blob;
    }
  }
  return std::nullopt;
}

void Client::IngestIntoFillLocked(StateFill& fill, const std::string& key,
                                  const VersionedBlob& blob, bool& index_dirty) {
  // A new copy is kept only if the ingest succeeded, so a rejected blob
  // never leads to a publish.
  std::shared_ptr<ClientState> next =
      fill.copy != nullptr ? fill.copy : std::make_shared<ClientState>(*fill.base);
  IngestResult ingest = IngestLocked(*next, key, blob);
  index_dirty |= ingest.index_dirty;
  if (ingest.ok) fill.copy = std::move(next);
}

bool Client::LoadModelLocked(StateFill& fill, const std::string& model_name,
                             bool allow_store) {
  if (fill.view().FindReadyModel(model_name) != nullptr) return true;
  auto spec_blob = FetchLocked(SpecKey(model_name), allow_store);
  auto model_blob = FetchLocked(ModelKey(model_name), allow_store);
  if (!spec_blob || !model_blob) return false;
  bool index_dirty = false;
  IngestIntoFillLocked(fill, SpecKey(model_name), *spec_blob, index_dirty);
  IngestIntoFillLocked(fill, ModelKey(model_name), *model_blob, index_dirty);
  if (index_dirty) PersistIndexLocked();
  return fill.view().FindReadyModel(model_name) != nullptr;
}

bool Client::LoadFeaturesLocked(StateFill& fill, uint64_t subscription_id,
                                bool allow_store) {
  if (fill.view().FindFeatures(subscription_id) != nullptr) return true;
  auto blob = FetchLocked(FeatureKey(subscription_id), allow_store);
  if (!blob) return false;
  bool index_dirty = false;
  IngestIntoFillLocked(fill, FeatureKey(subscription_id), *blob, index_dirty);
  if (index_dirty) PersistIndexLocked();
  return fill.view().FindFeatures(subscription_id) != nullptr;
}

std::vector<std::string> Client::GetAvailableModels() const {
  StatePtr state = LoadState();
  std::vector<std::string> names;
  names.reserve(state->models.size());
  for (const auto& [name, entry] : state->models) {
    if (entry->model != nullptr) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void Client::ExportModelBytes(const std::string& name,
                              const rc::ml::ExecEngine& engine) {
  // Ingest path (writer-locked, rare), so get-or-create per model is fine.
  rc::obs::Labels labels = config_.metric_labels;
  labels.emplace_back("model", name);
  labels.emplace_back("pool", "f64");
  metrics_->GetGauge("rc_client_model_bytes", labels,
                     "compiled node pool + leaf table bytes")
      .Set(static_cast<double>(engine.bytes()));
}

Prediction Client::PredictSingle(const std::string& model_name, const ClientInputs& inputs) {
  // Sampled timing (one call in kPredictLatencySampleEvery per thread) keeps
  // the span's clock pair off most calls; everything else on this path is
  // relaxed shard increments — no mutex beyond the result-cache shard lock.
  thread_local uint32_t calls = 0;
  const bool timed = ++calls % kPredictLatencySampleEvery == 0;
  rc::obs::TraceSpan span("client/predict", timed ? m_.predict_latency_us : nullptr);
  return PredictSingleImpl(model_name, inputs);
}

Prediction Client::PredictSingleImpl(const std::string& model_name,
                                     const ClientInputs& inputs) {
  const uint64_t key = inputs.CacheKey(model_name);
  // Read at probe time, so before the snapshot load that scores the row: a
  // result computed from a snapshot older than a push is stamped with the
  // generation that push bumped.
  const uint32_t stamp = Stamp(inputs.subscription_id);
  {
    rc::obs::TraceSpan cache_span("client/result_cache");
    if (auto cached = CountedLookup(key, stamp)) return *cached;
  }

  Prediction prediction;
  const MissRow row{&inputs, key, stamp, &prediction};
  ScoreMisses(model_name, {&row, 1});
  return prediction;
}

Client::StatePtr Client::PredictMiss(const std::string& model_name, const MissRow& row) {
  const uint64_t subscription_id = row.inputs->subscription_id;
  const bool pull = config_.mode == CacheMode::kPull;
  StatePtr state;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    // Another thread (or a push) may have filled the gap while we waited.
    // Fills only add artifacts that were missing, so no cached result goes
    // stale and no generation is bumped; the state is copied and published
    // only if something was actually ingested.
    StateFill fill{state_, nullptr};
    if (fill.base->FindReadyModel(model_name) != nullptr &&
        fill.base->FindFeatures(subscription_id) != nullptr) {
      state = fill.base;
    } else {
      // Never-blocking pull answers no-prediction while warming the caches
      // for subsequent requests. (In production the warm-up happens on a
      // background thread.)
      const bool warm_only = pull && config_.pull_never_blocks;
      const bool model_ready = LoadModelLocked(fill, model_name, /*allow_store=*/pull);
      if (model_ready || warm_only) {
        LoadFeaturesLocked(fill, subscription_id, /*allow_store=*/pull);
      }
      // Publishing keeps partial artifacts (e.g. a spec) too.
      if (fill.copy != nullptr) PublishLocked(fill.copy);
      if (model_ready && !warm_only) {
        state = fill.copy != nullptr ? StatePtr(fill.copy) : fill.base;
      }
    }
  }
  if (state == nullptr || state->FindFeatures(subscription_id) == nullptr) {
    // Not cached: a later call may find the gap filled.
    m_.no_predictions->Increment();
    *row.out = Prediction::None();
    return nullptr;
  }
  return state;
}

void Client::ScoreMisses(const std::string& model_name, std::span<const MissRow> rows,
                         StatePtr state) {
  if (state == nullptr) state = LoadState();
  const LoadedModel* model = state->FindReadyModel(model_name);
  auto history_of = [&](const MissRow& row) -> const SubscriptionFeatures* {
    return model != nullptr ? state->FindFeatures(row.inputs->subscription_id) : nullptr;
  };

  // Rows this snapshot answers. Sorted by cache key below, so each distinct
  // key is featurized and scored once, inserted into the result cache once,
  // and fanned out to every row that asked for it. The list and the arenas
  // are per thread, so a warm call allocates nothing; PredictMiss re-enters
  // this function, so all three are dead before the first PredictMiss call.
  struct Batched {
    uint64_t key;
    size_t row;
    const SubscriptionFeatures* history;
  };
  thread_local std::vector<Batched> batch;
  thread_local std::vector<double> X;
  thread_local std::vector<double> proba;
  batch.clear();
  size_t fills = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (const SubscriptionFeatures* history = history_of(rows[r])) {
      batch.push_back({rows[r].key, r, history});
    } else if (snapshot_miss_is_final_) {
      // Only a push could supply the gap: a cached no-prediction.
      *rows[r].out = FinalNone(rows[r].key, rows[r].stamp);
    } else {
      ++fills;
    }
  }

  if (!batch.empty()) {
    std::sort(batch.begin(), batch.end(), [](const Batched& a, const Batched& b) {
      return a.key != b.key ? a.key < b.key : a.row < b.row;
    });
    auto first_of_key = [&](size_t b) { return b == 0 || batch[b].key != batch[b - 1].key; };
    const size_t nf = model->featurizer->num_features();
    const size_t k = static_cast<size_t>(model->model->num_classes());
    X.resize(batch.size() * nf);
    size_t unique = 0;
    {
      rc::obs::TraceSpan featurize_span("client/featurize");
      for (size_t b = 0; b < batch.size(); ++b) {
        if (!first_of_key(b)) continue;
        model->featurizer->EncodeTo(*rows[batch[b].row].inputs, *batch[b].history,
                                    {X.data() + unique * nf, nf});
        ++unique;
      }
    }
    proba.resize(unique * k);
    {
      rc::obs::TraceSpan exec_span("client/exec_batch");
      model->engine->PredictBatch(X.data(), unique, nf, proba.data());
    }
    m_.model_executions->Increment(unique);
    Prediction scored;
    const double* p = proba.data();
    for (size_t b = 0; b < batch.size(); ++b) {
      const MissRow& row = rows[batch[b].row];
      if (first_of_key(b)) {
        const rc::ml::Scored top = rc::ml::Argmax({p, k});
        scored = Prediction::Of(top.label, top.score);
        p += k;
        if (scored.valid) ResultCacheInsert(row.key, scored, row.stamp);
      }
      *row.out = scored;
    }
  }

  if (fills == 0) return;
  // Rows a store read or the disk mirror may answer: the serialized fill
  // path, then this scorer against the state it hands back.
  for (const MissRow& row : rows) {
    if (history_of(row) != nullptr) continue;
    if (StatePtr filled = PredictMiss(model_name, row)) {
      ScoreMisses(model_name, {&row, 1}, std::move(filled));
    }
  }
}

// Table 2's predict_many, batched for real: the result cache is probed per
// key first, and only the misses go to ScoreMisses — the path a
// PredictSingle miss takes — so batch and single semantics are identical
// input-for-input.
std::vector<Prediction> Client::PredictMany(const std::string& model_name,
                                            std::span<const ClientInputs> inputs) {
  rc::obs::TraceSpan span("client/predict");
  m_.batch_size->Record(static_cast<double>(inputs.size()));
  std::vector<Prediction> out(inputs.size());
  if (inputs.empty()) return out;

  std::vector<MissRow> misses;
  misses.reserve(inputs.size());
  {
    rc::obs::TraceSpan cache_span("client/result_cache");
    // Every row's stamp is read here, before ScoreMisses loads the snapshot.
    const uint32_t client_gen = ClientGeneration();
    uint64_t nones = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const uint64_t key = inputs[i].CacheKey(model_name);
      const uint32_t stamp = Stamp(client_gen, inputs[i].subscription_id);
      if (auto cached = ResultCacheLookup(key, stamp)) {
        out[i] = *cached;
        nones += cached->valid ? 0 : 1;
      } else {
        misses.push_back({&inputs[i], key, stamp, &out[i]});
      }
    }
    m_.result_hits->Increment(inputs.size() - misses.size());
    if (nones > 0) m_.no_predictions->Increment(nones);
  }
  if (!misses.empty()) {
    m_.result_misses->Increment(misses.size());
    ScoreMisses(model_name, misses);
  }
  return out;
}

void Client::ForceReloadCache() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (store_ == nullptr) {
    BumpClientGenerationLocked();
    return;
  }
  if (!store_->available()) {
    // Outage: keep serving the last-good snapshot and its cached results.
    SetDegraded(DegradedReason::kStoreOutage);
    BreakerFailureLocked();
    return;
  }
  // Overlay fresh artifacts onto the last-good state, so keys whose reads
  // fail mid-reload (errors, timeout) keep their previous value instead of
  // vanishing from the snapshot.
  auto next = std::make_shared<ClientState>(*state_);
  LoadAllFromStoreLocked(*next);
  PublishLocked(std::move(next));
  BumpClientGenerationLocked();
}

void Client::FlushCache() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  PublishLocked(std::make_shared<ClientState>());
  known_keys_.clear();
  known_keys_set_.clear();
  if (disk_ != nullptr) disk_->Clear();
  BumpClientGenerationLocked();
  result_cache_->Invalidate();  // frees the entries the bump made stale
}

ClientStats Client::stats() const {
  ClientStats out;
  out.result_hits = m_.result_hits->Value();
  out.result_misses = m_.result_misses->Value();
  out.model_executions = m_.model_executions->Value();
  out.store_fetches = m_.store_fetches->Value();
  out.disk_hits = m_.disk_hits->Value();
  out.no_predictions = m_.no_predictions->Value();
  out.store_errors = m_.store_errors->Value();
  out.store_retries = m_.store_retries->Value();
  out.corrupt_blobs = m_.corrupt_blobs->Value();
  out.decode_failures = m_.decode_failures->Value();
  out.breaker_trips = m_.breaker_trips->Value();
  out.reload_timeouts = m_.reload_timeouts->Value();
  out.degraded_reason =
      static_cast<DegradedReason>(degraded_reason_.load(std::memory_order_relaxed));
  return out;
}

HealthSnapshot Client::Health() const {
  HealthSnapshot out;
  out.degraded = degraded_reason();
  {
    // The breaker fields are only ever written under writer_mu_; a brief
    // admin-path lock beats widening them to atomics.
    std::lock_guard<std::mutex> lock(writer_mu_);
    out.breaker_open = breaker_open_;
    out.consecutive_store_failures = consecutive_store_failures_;
  }
  StatePtr state = LoadState();
  if (state != nullptr) {
    out.models.reserve(state->models.size());
    for (const auto& [name, entry] : state->models) {
      ModelHealth mh;
      mh.name = name;
      mh.spec_version = entry->spec.version;
      mh.blob_version = entry->blob_version;
      mh.loaded_at_ns = entry->loaded_at_ns;
      mh.ready = entry->ready();
      out.models.push_back(std::move(mh));
    }
    std::sort(out.models.begin(), out.models.end(),
              [](const ModelHealth& a, const ModelHealth& b) { return a.name < b.name; });
  }
  return out;
}

}  // namespace rc::core
