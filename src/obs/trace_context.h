// rc::obs — hierarchical request tracing: a per-thread trace context stack
// (trace_id / span_id / sampling decision), deterministic 1-in-N root
// sampling, the RAII TraceSpan instrumentation point, and a bounded
// in-memory store of finished traces for the /tracez introspection endpoint.
//
// TraceSpan is the single instrumentation point and the one way to time a
// scope; TraceStore is its single trace sink. When a sampled context is
// current, each span pushes itself onto the thread's context stack, so
// nested spans form a real tree (parent_span_id links) and the finished
// records land in TraceStore. A span given a Histogram also records its wall
// time (us) there on every exit, sampled or not. Span names must be string
// literals (or otherwise outlive the store): records keep the pointer, never
// a copy.
//
// Cost model, with sampling off (the default):
//   * no histogram: one thread-local read and one branch, no clock read;
//   * with a histogram: that, plus one clock pair and one histogram record
//     (relaxed adds on the caller's shard).
// A sampled span reads the clock once at each end, feeds both its
// SpanRecord and its histogram from that pair, and takes the TraceStore
// mutex once at destruction. Sampling (Tracer::SetSampleEvery) bounds how
// often that happens on the hot path.
//
// Instrumented paths (grep for the names; * = also times a histogram):
//   prediction:  client/predict*  client/result_cache  client/featurize
//                client/exec_batch
//   network:     netclient/call  net/read_frame  net/predict
//                net/write_frame
//   store path:  client/store_read*  client/crc_verify  client/decode
//                client/publish_state  store/get*  store/put  disk/read
//                disk/write
//   pipeline:    pipeline/observations*  pipeline/build_examples*
//                pipeline/train*  pipeline/feature_snapshot*
//                pipeline/publish*  pipeline/validate*
//   scheduler:   sched/place*  sim/slot*
//
// Cross-process: contexts travel over RCNP v2 frames (src/net/protocol.h).
// Trace and span ids are salted with the pid so ids minted on both ends of
// a connection do not collide within one trace.
#ifndef RC_SRC_OBS_TRACE_CONTEXT_H_
#define RC_SRC_OBS_TRACE_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"

namespace rc::obs {

// The propagated identity of one request. `trace_id == 0` means "no trace":
// unsampled requests carry no context at all, so every downstream span
// check is a single comparison.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // the span a child should use as its parent
  bool sampled = false;

  bool valid() const { return trace_id != 0 && sampled; }
};

namespace internal {
// The thread's current context. TraceSpan push/pops it; wire ingress
// installs it via ScopedTraceContext. Direct writes outside this header and
// trace_context.cc are a bug.
inline thread_local TraceContext t_current{};
// Small sequential id of the calling thread, for span records.
uint32_t ThreadTraceTid();
}  // namespace internal

inline TraceContext CurrentTraceContext() { return internal::t_current; }

// Installs `ctx` as the thread's current context for a scope (wire ingress,
// cross-thread handoff) and restores the previous context on exit.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx) : prev_(internal::t_current) {
    internal::t_current = ctx;
  }
  ~ScopedTraceContext() { internal::t_current = prev_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

// Root sampling and id allocation. StartTrace() makes the per-request
// sampling decision deterministically (every Nth request starts a trace),
// so tests and CI runs sample predictably with no RNG on the hot path.
class Tracer {
 public:
  static Tracer& Global();

  // Sample one request in `n` as a new root trace; 0 disables new roots
  // (propagated contexts from the wire are still honoured).
  void SetSampleEvery(uint64_t n) { sample_every_.store(n, std::memory_order_relaxed); }
  uint64_t sample_every() const { return sample_every_.load(std::memory_order_relaxed); }

  // Allocates a context for a new root trace, or an invalid context when
  // this request lost the sampling draw. The returned span_id is 0: the
  // root TraceSpan created with it becomes the parentless root.
  TraceContext StartTrace();

  static uint64_t NextSpanId();

 private:
  Tracer();

  std::atomic<uint64_t> sample_every_{0};
  std::atomic<uint64_t> request_counter_{0};
  std::atomic<uint64_t> next_trace_;
};

// One finished span. `name` must be a string literal (same contract as
// TraceSpan).
struct SpanRecord {
  const char* name = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint32_t tid = 0;
};

// Records a synthetic span under `parent` without the RAII dance — used
// where the timed interval and the context are discovered at different
// times (the server's frame read happens before the frame is parsed, the
// response write after the handler returned). Returns the new span id, or 0
// when the parent is not a sampled context.
uint64_t RecordSpanUnder(const char* name, const TraceContext& parent,
                         uint64_t start_ns, uint64_t duration_ns);

// RAII span. When the governing TraceContext is sampled, the span allocates
// its own span id, becomes the thread's current context for its lifetime
// (children parent to it), and records to TraceStore on finish. When
// `histogram` is non-null, the span also records its wall time (us) into it
// on every exit, sampled or not. With neither, it does nothing beyond the
// context read.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Histogram* histogram = nullptr)
      : name_(name), histogram_(histogram) {
    const TraceContext cur = internal::t_current;
    if (cur.valid()) {
      StartTraced(cur);
    } else if (histogram_ != nullptr) {
      open_ = true;
      start_ns_ = NowNs();
    }
  }

  // Starts the span under an explicit parent context instead of the
  // thread's current one: root spans (ctx from Tracer::StartTrace(), which
  // carries span_id 0 so this span becomes the parentless root) and spans
  // continuing a wire context.
  TraceSpan(const char* name, const TraceContext& ctx) : name_(name) {
    if (ctx.valid()) StartTraced(ctx);
  }

  ~TraceSpan() {
    if (open_) Finish();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // This span's context, for handing to another thread or the wire.
  TraceContext context() const {
    if (trace_id_ == 0) return {};
    return TraceContext{trace_id_, span_id_, true};
  }

 private:
  void StartTraced(const TraceContext& parent);
  void Finish();

  const char* name_;
  Histogram* histogram_ = nullptr;
  bool open_ = false;  // a clock pair to close: sampled, or timing a histogram
  uint64_t start_ns_ = 0;
  uint64_t trace_id_ = 0;  // non-zero only when sampled
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  TraceContext prev_;
};

// Bounded in-memory store of sampled traces, rendered by /tracez.
//
// Lifecycle: spans accumulate in an active map (trace_id -> bounded span
// list). When a trace finishes — its root span ends, or the server-side
// handler completes for a trace whose root lives in a remote process — it
// is classified into a latency bucket and offered to that bucket's
// reservoir (uniform sampling via a seeded LCG, so every latency regime
// keeps exemplars no matter how skewed the traffic). Kept traces stay
// readable and still absorb late spans (a response-write span lands after
// the client saw the bytes); rejected traces drop their spans immediately
// and leave a tombstone so stragglers don't resurrect them. The active map
// is FIFO-bounded; reservoir-kept traces are pinned until displaced.
class TraceStore {
 public:
  static constexpr size_t kMaxActiveTraces = 256;  // live + tombstone entries
  static constexpr size_t kMaxSpansPerTrace = 96;  // extra spans are dropped
  static constexpr size_t kTracesPerBucket = 4;    // reservoir K

  static TraceStore& Global();

  void Record(const SpanRecord& rec);

  // Classify + reservoir-offer. Idempotent per trace: the first caller
  // (root span destructor, or the server frame handler) decides the bucket.
  void FinishTrace(uint64_t trace_id, uint64_t root_duration_ns);

  // {"sampled":N,"active":M,"buckets":[{"le_us":...,"seen":...,
  //  "traces":[{"trace_id":"0x..","root_duration_us":..,"spans":[...]}]}]}
  std::string TracezJson() const;

  // Drops every trace and resets reservoir state (tests).
  void Clear();

  // Finished traces offered to the reservoir since the last Clear().
  uint64_t finished_count() const;

 private:
  enum class State : uint8_t { kActive, kRetained, kDropped };
  struct TraceEntry {
    std::vector<SpanRecord> spans;
    State state = State::kActive;
    uint64_t root_duration_ns = 0;
  };
  struct Bucket {
    uint64_t seen = 0;
    std::vector<uint64_t> trace_ids;
  };

  TraceStore();

  void EvictLocked();
  uint64_t NextRandomLocked();

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, TraceEntry> traces_;
  std::deque<uint64_t> arrival_order_;  // FIFO eviction candidates
  std::vector<double> bucket_bounds_us_;
  std::vector<Bucket> buckets_;  // bounds + overflow
  uint64_t finished_ = 0;
  uint64_t rng_ = 0x2545F4914F6CDD1Dull;
};

}  // namespace rc::obs

#endif  // RC_SRC_OBS_TRACE_CONTEXT_H_
