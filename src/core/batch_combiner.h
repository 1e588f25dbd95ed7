// Cross-request batching combiner (DESIGN.md "Cross-request batching").
//
// The ExecEngine scores a batch of 64 rows 2.4-2.8x faster per row than
// single rows, but concurrent PredictSingle callers each walk the ensemble
// alone. The combiner closes that gap: post-cache-miss PredictSingle calls
// for the same model are parked for a bounded window and dispatched as ONE
// call of the client's miss path (one snapshot load, one batched ExecEngine
// walk; the parked rows are not probed again). A lone caller's fast path and
// a combiner-off miss run that same path with one row, so each caller gets
// exactly the prediction it would have computed alone: enabling the
// combiner never changes results, only scheduling.
//
// Dispatch policy (per model; every rule below is pinned by the
// VirtualClock suite in tests/core/batch_combiner_test.cc):
//  * fast path — an arrival finding no open batch and no dispatch in flight
//    executes immediately; a lone caller never pays the window.
//  * park — otherwise the arrival joins the model's open batch. The first
//    joiner becomes the leader and arms the window (max_wait_us).
//  * flush-on-full — the arrival that fills the batch to max_batch
//    dispatches it immediately.
//  * handoff — when any dispatch for the model completes, the open batch is
//    flushed at once: the requests it holds arrived while an execution was
//    already running, so waiting out the rest of the window only adds
//    latency.
//  * window — the leader's window expires with the batch still open and no
//    dispatch executing: the leader dispatches whatever accumulated. If a
//    dispatch IS executing at expiry, the leader keeps parking until that
//    dispatch's handoff flush (continuous batching: batches never fragment
//    into overlapping partial executions, and the extra wait is bounded by
//    the in-flight execution, not by wall-clock).
//  * shutdown — parked callers are drained with ok=false (never a hang);
//    Client::PredictSingle falls back to scoring the row itself then.
//
// Time comes from the client's clock (ClientConfig::clock): production uses
// MonotonicClock, tests drive a VirtualClock so window expiry and wait
// accounting are exact. The rc_combiner_* instruments land in the client's
// registry under its labels.
#ifndef RC_SRC_CORE_BATCH_COMBINER_H_
#define RC_SRC_CORE_BATCH_COMBINER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/core/client.h"
#include "src/core/prediction.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_context.h"

namespace rc::core {

// Why a request's batch was dispatched (mirrors the rc_combiner_flushes
// counter labels).
enum class CombineFlush : uint8_t {
  kFastPath = 0,  // executed immediately, no parking
  kWindow,        // leader's max_wait_us expired
  kFull,          // batch reached max_batch
  kHandoff,       // a completing dispatch flushed the open batch
  kShutdown,      // combiner shut down while the request was parked
};
const char* ToString(CombineFlush flush);

// One coalesced prediction. `ok` is false only when the combiner was shut
// down while the request was parked (the prediction is None then).
struct CombineResult {
  Prediction prediction;
  bool ok = true;
  // The client's degradation state observed by this request's dispatch, so
  // network front-ends can surface serving-from-stale-state per response.
  DegradedReason degraded = DegradedReason::kNone;
  // Dispatch diagnostics (pinned by tests; stable across a batch).
  CombineFlush flush = CombineFlush::kFastPath;
  size_t batch_size = 1;
  // Identifies the dispatch that produced this result. All requests sharing
  // a batch_id were scored against one state snapshot.
  uint64_t batch_id = 0;
};

class BatchCombiner {
 public:
  // The client must outlive the combiner. The combiner never re-enters
  // Client::PredictSingle (which may route back into it): the fast path and
  // every dispatch call the client's miss path directly. `options.enabled`
  // is not read here.
  BatchCombiner(Client* client, CombinerOptions options);
  ~BatchCombiner();  // implies Shutdown()

  BatchCombiner(const BatchCombiner&) = delete;
  BatchCombiner& operator=(const BatchCombiner&) = delete;

  // Coalescing equivalent of a PredictSingle that missed the result cache:
  // blocks until this request's batch is dispatched (bounded by max_wait_us
  // plus the dispatch itself). Reads the request's cache key and generation
  // stamp on entry, before the dispatch loads the snapshot, and never probes
  // the result cache itself. Thread-safe.
  CombineResult Predict(const std::string& model, const ClientInputs& inputs);

  // Drains every parked request with ok=false and makes all future Predict
  // calls return ok=false immediately. Idempotent; no request ever hangs.
  void Shutdown();

  // Requests currently parked across all models (test/ops visibility; also
  // exported as the rc_combiner_pending gauge).
  size_t pending() const;

 private:
  // One caller's parking slot. Lives on the caller's stack; pointers to it
  // are only held while the caller is blocked inside Predict.
  struct Slot {
    const ClientInputs* inputs;
    uint64_t key;    // result-cache key and generation stamp, read on entry
    uint32_t stamp;
    Prediction result;  // written by the dispatching thread before `done`
    DegradedReason degraded = DegradedReason::kNone;
    CombineFlush flush = CombineFlush::kFastPath;
    size_t batch_size = 1;
    uint64_t batch_id = 0;
    bool done = false;
    bool aborted = false;
    // The caller's combiner/park span, captured at park time. The dispatching
    // thread records a follows-from marker under it and fills link_* with the
    // combiner/dispatch span's identity, so every coalesced caller's trace
    // points at the one dispatch that did its work (and vice versa).
    rc::obs::TraceContext trace;
    uint64_t link_trace_id = 0;
    uint64_t link_span_id = 0;
  };

  struct Batch {
    std::vector<Slot*> slots;
    int64_t deadline_us = 0;   // leader's window expiry
    bool flush_now = false;    // set by a completing dispatch (handoff)
    bool dispatched = false;
  };

  struct ModelQueue {
    std::shared_ptr<Batch> open;  // batch still accepting joiners
    int in_flight = 0;            // dispatches currently executing
  };

  // Detaches `batch`, scores its rows outside the lock, routes results back
  // to every slot, and flushes any batch that opened meanwhile (handoff).
  // Requires `lock` held on entry; holds it again on return.
  void DispatchLocked(std::unique_lock<std::mutex>& lock, ModelQueue& queue,
                      const std::string& model, const std::shared_ptr<Batch>& batch,
                      CombineFlush reason);
  // Fast path: the slot's row scored at once, with handoff on completion.
  CombineResult FastPath(std::unique_lock<std::mutex>& lock, ModelQueue& queue,
                         const std::string& model, Slot& slot);

  Client* client_;
  CombinerOptions options_;
  rc::common::Clock* clock_;  // the client's

  mutable std::mutex mu_;
  // One condition variable for every parked caller (leaders wait on it via
  // clock_->WaitUntil; followers wait directly). Dispatches notify_all.
  std::condition_variable cv_;
  std::unordered_map<std::string, ModelQueue> queues_;
  bool shutdown_ = false;
  size_t pending_ = 0;
  uint64_t next_batch_id_ = 1;

  struct Instruments {
    rc::obs::Counter* requests;        // calls entering the combiner
    rc::obs::Counter* fast_path;       // requests served on the fast path
    rc::obs::Counter* flush_window;    // batch dispatches by reason
    rc::obs::Counter* flush_full;
    rc::obs::Counter* flush_handoff;
    rc::obs::Counter* flush_shutdown;  // requests drained by Shutdown
    rc::obs::Histogram* batch_size;    // rows per coalesced dispatch
    rc::obs::Histogram* wait_us;       // per-request park time (clock units)
    rc::obs::Gauge* pending;           // currently parked requests
  } m_{};
};

}  // namespace rc::core

#endif  // RC_SRC_CORE_BATCH_COMBINER_H_
