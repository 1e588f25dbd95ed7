#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rc::obs {

size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard = next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

namespace {
constexpr double kMinBound = 0.1;     // upper bound of the first bucket (us)
constexpr double kBucketsPerDecade = 8.0;
}  // namespace

const std::vector<double>& Histogram::bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> out(kFiniteBuckets);
    for (size_t i = 0; i < kFiniteBuckets; ++i) {
      out[i] = kMinBound * std::pow(10.0, static_cast<double>(i) / kBucketsPerDecade);
    }
    return out;
  }();
  return bounds;
}

size_t Histogram::BucketIndex(double value) {
  if (!(value > kMinBound)) return 0;  // also catches NaN and negatives
  // ceil(log10(value/min) * per_decade): the first bound at or above value.
  double pos = std::log10(value / kMinBound) * kBucketsPerDecade;
  // Past the top bound, +inf included, is the overflow bucket
  // (kFiniteBuckets). Checked before the cast: converting an infinite double
  // to size_t is UB.
  if (!(pos < static_cast<double>(kFiniteBuckets))) return kFiniteBuckets;
  return static_cast<size_t>(std::ceil(pos - 1e-9));
}

void Histogram::Add(Shard& shard, size_t bucket, double value) {
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::RecordAt(double value, uint64_t now_ns) {
  const size_t bucket = BucketIndex(value);
  Add(shards_[ThreadShard()], bucket, value);
  WindowRecord(bucket, value, now_ns);
}

void Histogram::WindowRecord(size_t bucket, double value, uint64_t now_ns) {
  const uint64_t epoch = now_ns / kWindowEpochNs;
  WindowSlot& slot = window_[epoch % window_.size()];
  uint64_t tag = slot.epoch.load(std::memory_order_acquire);
  if (tag != epoch) {
    // A tag from a newer epoch means this sample is too old for the ring
    // (a laggard thread, or clock injection moving backwards in a test).
    if (tag != kEmptyEpoch && tag > epoch) return;
    if (slot.epoch.compare_exchange_strong(tag, epoch, std::memory_order_acq_rel)) {
      for (Shard& shard : slot.shards) {
        shard.sum.store(0.0, std::memory_order_relaxed);
        shard.count.store(0, std::memory_order_relaxed);
        for (auto& b : shard.buckets) b.store(0, std::memory_order_relaxed);
      }
    } else if (slot.epoch.load(std::memory_order_acquire) != epoch) {
      return;  // lost the claim to a different epoch; drop the window sample
    }
  }
  Add(slot.shards[ThreadShard()], bucket, value);
}

void Histogram::SumInto(const Shards& shards, Snapshot& snap) {
  for (const Shard& shard : shards) {
    snap.count += shard.count.load(std::memory_order_relaxed);
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    for (size_t b = 0; b < shard.buckets.size(); ++b) {
      snap.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.bounds = bounds();
  snap.buckets.assign(kFiniteBuckets + 1, 0);
  SumInto(shards_, snap);
  return snap;
}

Histogram::Snapshot Histogram::TakeWindowSnapshot(uint64_t now_ns) const {
  Snapshot snap;
  snap.bounds = bounds();
  snap.buckets.assign(kFiniteBuckets + 1, 0);
  const uint64_t cur = now_ns / kWindowEpochNs;
  for (const WindowSlot& slot : window_) {
    const uint64_t tag = slot.epoch.load(std::memory_order_acquire);
    if (tag == kEmptyEpoch || tag > cur || cur - tag >= kWindowEpochs) {
      continue;  // outside the window (stale slot awaiting reuse)
    }
    SumInto(slot.shards, snap);
  }
  return snap;
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::max<uint64_t>(rank, 1);
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return b < bounds.size() ? bounds[b] : bounds.back();
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {
// Label values may come from outside the process (a model name read from a
// store key), so `\`, `"` and newline are escaped as the Prometheus text
// format requires; otherwise one value could end its series or forge another.
std::string RenderLabels(Labels& labels) {
  std::sort(labels.begin(), labels.end());
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"";
    for (char c : labels[i].second) {
      if (c == '\\' || c == '"') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
  }
  return out;
}
}  // namespace

MetricsRegistry::Entry& MetricsRegistry::GetOrCreate(std::string_view name,
                                                     Labels&& labels,
                                                     std::string_view help, Kind kind) {
  MetricInfo info;
  info.name = std::string(name);
  info.labels = RenderLabels(labels);
  info.help = std::string(help);
  std::string key = info.Key();

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("metric '" + key + "' already registered with another type");
    }
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.info = std::move(info);
  switch (kind) {
    case Kind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry.histogram = std::make_unique<Histogram>();
      break;
  }
  return entries_.emplace(std::move(key), std::move(entry)).first->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name, Labels labels,
                                     std::string_view help) {
  return *GetOrCreate(name, std::move(labels), help, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, Labels labels,
                                 std::string_view help) {
  return *GetOrCreate(name, std::move(labels), help, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name, Labels labels,
                                         std::string_view help) {
  return *GetOrCreate(name, std::move(labels), help, Kind::kHistogram).histogram;
}

RegistrySnapshot MetricsRegistry::Collect() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        snap.counters.push_back({entry.info, entry.counter->Value()});
        break;
      case Kind::kGauge:
        snap.gauges.push_back({entry.info, entry.gauge->Value()});
        break;
      case Kind::kHistogram:
        snap.histograms.push_back({entry.info, entry.histogram->TakeSnapshot(),
                                   entry.histogram->TakeWindowSnapshot(NowNs())});
        break;
    }
  }
  return snap;
}

}  // namespace rc::obs
