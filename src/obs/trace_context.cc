#include "src/obs/trace_context.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

namespace rc::obs {

namespace internal {

uint32_t ThreadTraceTid() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace internal

// Ids are (pid << 32) | sequence so the two ends of a loopback connection —
// or a client fleet hitting one server — mint non-colliding span ids within
// a shared trace without any coordination.
namespace {
uint64_t PidSalt() {
  static const uint64_t salt = static_cast<uint64_t>(::getpid()) << 32;
  return salt;
}
}  // namespace

Tracer::Tracer() : next_trace_(PidSalt() + 1) {}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

TraceContext Tracer::StartTrace() {
  uint64_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return {};
  uint64_t n = request_counter_.fetch_add(1, std::memory_order_relaxed);
  if (n % every != 0) return {};
  TraceContext ctx;
  ctx.trace_id = next_trace_.fetch_add(1, std::memory_order_relaxed);
  ctx.span_id = 0;  // the root span has no parent
  ctx.sampled = true;
  return ctx;
}

uint64_t Tracer::NextSpanId() {
  static std::atomic<uint64_t> next{PidSalt() + 1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t RecordSpanUnder(const char* name, const TraceContext& parent,
                         uint64_t start_ns, uint64_t duration_ns) {
  if (!parent.valid()) return 0;
  SpanRecord rec;
  rec.name = name;
  rec.trace_id = parent.trace_id;
  rec.span_id = Tracer::NextSpanId();
  rec.parent_span_id = parent.span_id;
  rec.start_ns = start_ns;
  rec.duration_ns = duration_ns;
  rec.tid = internal::ThreadTraceTid();
  TraceStore::Global().Record(rec);
  return rec.span_id;
}

void TraceSpan::StartTraced(const TraceContext& parent) {
  open_ = true;
  trace_id_ = parent.trace_id;
  parent_span_id_ = parent.span_id;
  span_id_ = Tracer::NextSpanId();
  prev_ = internal::t_current;
  internal::t_current = TraceContext{trace_id_, span_id_, true};
  start_ns_ = NowNs();
}

void TraceSpan::Finish() {
  const uint64_t end_ns = NowNs();
  const uint64_t duration_ns = end_ns - start_ns_;
  if (histogram_ != nullptr) {
    histogram_->RecordAt(static_cast<double>(duration_ns) / 1000.0, end_ns);
  }
  if (trace_id_ == 0) return;
  internal::t_current = prev_;
  SpanRecord rec;
  rec.name = name_;
  rec.trace_id = trace_id_;
  rec.span_id = span_id_;
  rec.parent_span_id = parent_span_id_;
  rec.start_ns = start_ns_;
  rec.duration_ns = duration_ns;
  rec.tid = internal::ThreadTraceTid();
  TraceStore::Global().Record(rec);
  // A parentless span is the trace root: its end is the trace's end.
  if (parent_span_id_ == 0) {
    TraceStore::Global().FinishTrace(trace_id_, duration_ns);
  }
}

TraceStore::TraceStore()
    : bucket_bounds_us_{100.0, 1'000.0, 10'000.0, 100'000.0},
      buckets_(bucket_bounds_us_.size() + 1) {
  for (Bucket& b : buckets_) b.trace_ids.reserve(kTracesPerBucket);
}

TraceStore& TraceStore::Global() {
  static TraceStore* store = new TraceStore();
  return *store;
}

uint64_t TraceStore::NextRandomLocked() {
  rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
  return rng_ >> 16;
}

void TraceStore::EvictLocked() {
  // One pass over the FIFO at most: retained entries are pinned (bounded by
  // buckets * K, far below the map cap) and get re-queued behind the rest.
  size_t scans = arrival_order_.size();
  while (traces_.size() > kMaxActiveTraces && scans-- > 0) {
    uint64_t oldest = arrival_order_.front();
    arrival_order_.pop_front();
    auto it = traces_.find(oldest);
    if (it == traces_.end()) continue;  // stale id from an earlier erase
    if (it->second.state == State::kRetained) {
      arrival_order_.push_back(oldest);
      continue;
    }
    traces_.erase(it);
  }
}

void TraceStore::Record(const SpanRecord& rec) {
  if (rec.trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = traces_.find(rec.trace_id);
  if (it == traces_.end()) {
    it = traces_.emplace(rec.trace_id, TraceEntry{}).first;
    arrival_order_.push_back(rec.trace_id);
    EvictLocked();
    // The new entry itself may have been evicted on a full map of pinned
    // traces; re-find rather than trust the iterator.
    it = traces_.find(rec.trace_id);
    if (it == traces_.end()) return;
  }
  TraceEntry& entry = it->second;
  if (entry.state == State::kDropped) return;  // tombstone: reservoir said no
  if (entry.spans.size() >= kMaxSpansPerTrace) return;
  entry.spans.push_back(rec);
}

void TraceStore::FinishTrace(uint64_t trace_id, uint64_t root_duration_ns) {
  if (trace_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = traces_.find(trace_id);
  if (it == traces_.end() || it->second.state != State::kActive) return;
  ++finished_;
  const double us = static_cast<double>(root_duration_ns) / 1000.0;
  size_t b = 0;
  while (b < bucket_bounds_us_.size() && us > bucket_bounds_us_[b]) ++b;
  Bucket& bucket = buckets_[b];
  ++bucket.seen;

  size_t keep_slot = bucket.trace_ids.size();
  if (bucket.trace_ids.size() >= kTracesPerBucket) {
    uint64_t j = NextRandomLocked() % bucket.seen;
    if (j >= kTracesPerBucket) {
      // Lost the reservoir draw: drop the spans, keep a tombstone.
      it->second.state = State::kDropped;
      it->second.spans.clear();
      it->second.spans.shrink_to_fit();
      return;
    }
    keep_slot = static_cast<size_t>(j);
    auto displaced = traces_.find(bucket.trace_ids[keep_slot]);
    if (displaced != traces_.end()) {
      displaced->second.state = State::kDropped;
      displaced->second.spans.clear();
      displaced->second.spans.shrink_to_fit();
    }
  }
  it->second.state = State::kRetained;
  it->second.root_duration_ns = root_duration_ns;
  if (keep_slot < bucket.trace_ids.size()) {
    bucket.trace_ids[keep_slot] = trace_id;
  } else {
    bucket.trace_ids.push_back(trace_id);
  }
}

void TraceStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.clear();
  arrival_order_.clear();
  for (Bucket& b : buckets_) {
    b.seen = 0;
    b.trace_ids.clear();
  }
  finished_ = 0;
}

uint64_t TraceStore::finished_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

namespace {

std::string HexId(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(id));
  return buf;
}

std::string FmtUs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(ns) / 1000.0);
  return buf;
}

}  // namespace

std::string TraceStore::TracezJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n\"sampled\":" + std::to_string(finished_);
  size_t active = 0;
  for (const auto& [id, entry] : traces_) {
    if (entry.state == State::kActive) ++active;
  }
  out += ",\"active\":" + std::to_string(active);
  out += ",\"buckets\":[";
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (b > 0) out += ",";
    out += "\n{\"le_us\":";
    if (b < bucket_bounds_us_.size()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.0f", bucket_bounds_us_[b]);
      out += buf;
    } else {
      out += "\"+Inf\"";
    }
    out += ",\"seen\":" + std::to_string(buckets_[b].seen);
    out += ",\"traces\":[";
    bool first_trace = true;
    for (uint64_t id : buckets_[b].trace_ids) {
      auto it = traces_.find(id);
      if (it == traces_.end() || it->second.state != State::kRetained) continue;
      if (!first_trace) out += ",";
      first_trace = false;
      const TraceEntry& entry = it->second;
      out += "\n{\"trace_id\":\"" + HexId(id) + "\"";
      out += ",\"root_duration_us\":" + FmtUs(entry.root_duration_ns);
      out += ",\"spans\":[";
      std::vector<const SpanRecord*> spans;
      spans.reserve(entry.spans.size());
      for (const SpanRecord& s : entry.spans) spans.push_back(&s);
      std::stable_sort(spans.begin(), spans.end(),
                       [](const SpanRecord* a, const SpanRecord* b2) {
                         return a->start_ns < b2->start_ns;
                       });
      for (size_t s = 0; s < spans.size(); ++s) {
        const SpanRecord& rec = *spans[s];
        if (s > 0) out += ",";
        out += "\n{\"name\":\"";
        out += rec.name;
        out += "\",\"span_id\":\"" + HexId(rec.span_id) + "\"";
        out += ",\"parent_span_id\":\"" + HexId(rec.parent_span_id) + "\"";
        out += ",\"start_us\":" + FmtUs(rec.start_ns);
        out += ",\"dur_us\":" + FmtUs(rec.duration_ns);
        out += ",\"tid\":" + std::to_string(rec.tid);
        out += "}";
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]\n}\n";
  return out;
}

}  // namespace rc::obs
