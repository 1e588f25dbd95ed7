#include "src/store/kv_store.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "src/common/crc32.h"
#include "src/common/faults.h"
#include "src/common/hashing.h"
#include "src/obs/trace_context.h"

namespace rc::store {

namespace {

size_t ShardCountFor(size_t requested) {
  const size_t clamped = std::clamp<size_t>(requested, 1, 256);
  size_t p = 1;
  while (p < clamped) p <<= 1;
  return p;
}

}  // namespace

bool VerifyBlob(const VersionedBlob& blob) { return Crc32(blob.data) == blob.crc; }

double LatencyProfile::SampleUs(Rng& rng) const {
  // Lognormal with the requested median; sigma solved from the P99 ratio
  // (z_0.99 = 2.326).
  double mu = std::log(median_us);
  double sigma = std::log(p99_us / median_us) / 2.326;
  return rng.LogNormal(mu, sigma);
}

KvStore::KvStore(Options options)
    : options_(options), latency_rng_(options.latency_seed) {
  const size_t shard_count = ShardCountFor(options_.shards);
  shard_mask_ = shard_count - 1;
  shards_ = std::make_unique<Shard[]>(shard_count);
  rc::obs::MetricsRegistry& reg = options_.metrics != nullptr
                                      ? *options_.metrics
                                      : rc::obs::MetricsRegistry::Global();
  m_.puts = &reg.GetCounter("rc_store_puts", {}, "successful writes");
  m_.puts_dropped =
      &reg.GetCounter("rc_store_puts_dropped", {}, "writes lost to outage or error");
  m_.gets_ok = &reg.GetCounter("rc_store_gets", {{"status", "ok"}}, "reads by outcome");
  m_.gets_notfound = &reg.GetCounter("rc_store_gets", {{"status", "notfound"}});
  m_.gets_failed = &reg.GetCounter("rc_store_gets", {{"status", "failed"}});
  m_.keys = &reg.GetGauge("rc_store_keys", {}, "distinct keys stored");
  m_.get_latency_us = &reg.GetHistogram("rc_store_get_latency_us", {},
                                        "TryGet latency incl. simulated profile (us)");
}

KvStore::~KvStore() = default;

KvStore::Shard& KvStore::ShardFor(const std::string& key) const {
  return shards_[HashU64(Fnv1a(key)) & shard_mask_];
}

void KvStore::MaybeSleep() const {
  if (!options_.simulate_latency) return;
  double us;
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    us = options_.latency.SampleUs(latency_rng_);
  }
  std::this_thread::sleep_for(std::chrono::microseconds(static_cast<int64_t>(us)));
}

uint64_t KvStore::Put(const std::string& key, std::vector<uint8_t> data) {
  rc::obs::TraceSpan span("store/put");
  faults::InjectLatency("kv/put");
  MaybeSleep();
  if (faults::InjectError("kv/put")) {  // injected I/O error: write lost
    m_.puts_dropped->Increment();
    return 0;
  }
  Shard& s = ShardFor(key);
  VersionedBlob blob;
  uint64_t ticket;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!available_.load(std::memory_order_acquire)) {
      // Outage: drop the write, consume no version, notify nobody.
      m_.puts_dropped->Increment();
      return 0;
    }
    VersionedBlob& entry = s.blobs[key];
    if (entry.version == 0) {
      m_.keys->Set(static_cast<double>(
          key_count_.fetch_add(1, std::memory_order_relaxed) + 1));
    }
    // The global counter is consumed only here, under the shard lock, after
    // every failure check — so versions are globally unique, increasing, and
    // (because writes to one key serialize on this lock) per-key monotonic.
    entry.version = version_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    entry.data = std::move(data);
    entry.crc = Crc32(entry.data);
    // Corrupt-at-rest / torn-write injection happens after the CRC stamp, so
    // readers see a blob whose checksum no longer matches its payload —
    // exactly what a real partial or bit-flipped write looks like.
    faults::InjectMutation("kv/put", entry.data);
    m_.puts->Increment();
    blob = entry;
    // The delivery ticket is issued with the version, under the same lock:
    // ticket order == version order for this shard's keys.
    ticket = s.next_ticket++;
  }
  std::vector<std::shared_ptr<ListenerEntry>> to_notify;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    to_notify.reserve(listeners_.size());
    for (const auto& [id, listener] : listeners_) {
      listener->in_flight += 1;  // pins the entry for Unsubscribe's drain
      to_notify.push_back(listener);
    }
  }
  // Deliver outside every store lock, but in ticket order: a listener sees
  // each key's versions in assignment order even under concurrent Puts.
  {
    std::unique_lock<std::mutex> nl(s.notify_mu);
    s.notify_cv.wait(nl, [&] { return s.serving_ticket == ticket; });
  }
  for (const auto& entry : to_notify) entry->fn(key, blob);
  {
    std::lock_guard<std::mutex> nl(s.notify_mu);
    s.serving_ticket += 1;
  }
  s.notify_cv.notify_all();
  if (!to_notify.empty()) {
    {
      std::lock_guard<std::mutex> lock(listeners_mu_);
      for (const auto& entry : to_notify) entry->in_flight -= 1;
    }
    listeners_drained_.notify_all();
  }
  return blob.version;
}

KvStore::GetResult KvStore::TryGet(const std::string& key) const {
  rc::obs::TraceSpan span("store/get", m_.get_latency_us);
  faults::InjectLatency("kv/get");
  MaybeSleep();
  if (faults::InjectError("kv/get")) {
    m_.gets_failed->Increment();
    return {GetStatus::kError, {}};
  }
  GetResult result;
  {
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    if (!available_.load(std::memory_order_acquire)) {
      m_.gets_failed->Increment();
      return {GetStatus::kUnavailable, {}};
    }
    auto it = s.blobs.find(key);
    if (it == s.blobs.end()) {
      m_.gets_notfound->Increment();
      return {GetStatus::kNotFound, {}};
    }
    result.status = GetStatus::kOk;
    result.blob = it->second;
  }
  m_.gets_ok->Increment();
  // Corrupt-on-read injection mutates only this caller's copy; the stored
  // blob (and its CRC) stay intact, so the next read may succeed.
  faults::InjectMutation("kv/get", result.blob.data);
  return result;
}

std::optional<VersionedBlob> KvStore::Get(const std::string& key) const {
  GetResult result = TryGet(key);
  if (!result.ok()) return std::nullopt;
  return std::move(result.blob);
}

std::vector<std::string> KvStore::ListKeys(const std::string& prefix) const {
  std::vector<std::string> keys;
  if (!available_.load(std::memory_order_acquire)) return keys;
  for (size_t i = 0; i <= shard_mask_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [key, blob] : s.blobs) {
      if (key.compare(0, prefix.size(), prefix) == 0) keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void KvStore::SetAvailable(bool available) {
  available_.store(available, std::memory_order_release);
}

bool KvStore::available() const {
  return available_.load(std::memory_order_acquire);
}

int KvStore::Subscribe(Listener listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  int id = next_listener_id_++;
  auto entry = std::make_shared<ListenerEntry>();
  entry->fn = std::move(listener);
  listeners_[id] = std::move(entry);
  return id;
}

void KvStore::Unsubscribe(int id) {
  std::unique_lock<std::mutex> lock(listeners_mu_);
  auto it = listeners_.find(id);
  if (it == listeners_.end()) return;
  std::shared_ptr<ListenerEntry> entry = it->second;
  listeners_.erase(it);
  // No new Put can reach the listener now; wait out invocations that copied
  // the entry before we erased it. After this returns the caller may safely
  // destroy anything the listener captured.
  listeners_drained_.wait(lock, [&] { return entry->in_flight == 0; });
}

size_t KvStore::key_count() const {
  size_t total = 0;
  for (size_t i = 0; i <= shard_mask_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.blobs.size();
  }
  return total;
}

}  // namespace rc::store
