#include "src/core/batch_combiner.h"

#include <utility>

#include "src/obs/trace_context.h"

namespace rc::core {

const char* ToString(CombineFlush flush) {
  switch (flush) {
    case CombineFlush::kFastPath: return "fast-path";
    case CombineFlush::kWindow: return "window";
    case CombineFlush::kFull: return "full";
    case CombineFlush::kHandoff: return "handoff";
    case CombineFlush::kShutdown: return "shutdown";
  }
  return "unknown";
}

namespace {

rc::obs::Labels WithReason(const rc::obs::Labels& base, const char* reason) {
  rc::obs::Labels labels = base;
  labels.emplace_back("reason", reason);
  return labels;
}

}  // namespace

BatchCombiner::BatchCombiner(Client* client, CombinerOptions options)
    : client_(client), options_(options), clock_(client->clock_) {
  rc::obs::MetricsRegistry* metrics = &client_->metrics();
  const rc::obs::Labels& labels = client_->config_.metric_labels;
  m_.requests = &metrics->GetCounter("rc_combiner_requests", labels,
                                     "requests entering the combiner");
  m_.fast_path = &metrics->GetCounter("rc_combiner_fast_path", labels,
                                      "requests served on the idle fast path");
  auto flush_counter = [&](const char* reason, std::string_view help) {
    return &metrics->GetCounter("rc_combiner_flushes", WithReason(labels, reason), help);
  };
  m_.flush_window = flush_counter("window", "batches flushed by window expiry");
  m_.flush_full = flush_counter("full", "batches flushed at max_batch");
  m_.flush_handoff = flush_counter("handoff", "batches flushed by a completing dispatch");
  m_.flush_shutdown = flush_counter("shutdown", "requests drained by Shutdown");
  m_.batch_size = &metrics->GetHistogram("rc_combiner_batch_size",
                                         rc::obs::HistogramOptions{}, labels,
                                         "rows per coalesced dispatch");
  m_.wait_us = &metrics->GetHistogram("rc_combiner_wait_us",
                                      rc::obs::HistogramOptions{}, labels,
                                      "per-request park time before results (us)");
  m_.pending = &metrics->GetGauge("rc_combiner_pending", labels,
                                  "requests currently parked in the combiner");
}

BatchCombiner::~BatchCombiner() { Shutdown(); }

size_t BatchCombiner::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

CombineResult BatchCombiner::Predict(const std::string& model,
                                     const ClientInputs& inputs) {
  rc::obs::TraceSpan call_span("combiner/predict");
  m_.requests->Increment();
  Slot slot;
  slot.inputs = &inputs;
  slot.key = inputs.CacheKey(model);
  slot.stamp = client_->Stamp(inputs.subscription_id);

  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    CombineResult aborted;
    aborted.ok = false;
    aborted.flush = CombineFlush::kShutdown;
    return aborted;
  }
  ModelQueue& queue = queues_[model];
  if (options_.fast_path_when_idle && queue.open == nullptr && queue.in_flight == 0) {
    return FastPath(lock, queue, model, slot);
  }

  const int64_t parked_at_us = clock_->NowUs();
  bool leader = false;
  if (queue.open == nullptr) {
    queue.open = std::make_shared<Batch>();
    queue.open->deadline_us = parked_at_us + options_.max_wait_us;
    leader = true;
  }
  std::shared_ptr<Batch> batch = queue.open;
  batch->slots.push_back(&slot);
  // The park span covers waiting plus result pickup; its context is
  // published on the slot (under mu_, so the dispatching thread sees it)
  // for the follows-from link to the batch dispatch.
  rc::obs::TraceSpan park_span("combiner/park");
  slot.trace = park_span.context();
  pending_ += 1;
  m_.pending->Set(static_cast<double>(pending_));

  if (batch->slots.size() >= options_.max_batch) {
    // The filler dispatches; the leader (and every other joiner) is woken
    // with its result already routed.
    DispatchLocked(lock, queue, model, batch, CombineFlush::kFull);
  } else if (leader) {
    // The leader owns the window: park until it expires, the batch is
    // flushed by someone else (full / handoff-marked / shutdown), or a
    // completing dispatch asks for an immediate flush.
    clock_->WaitUntil(lock, cv_, batch->deadline_us, [&] {
      return batch->dispatched || batch->flush_now || shutdown_;
    });
    // Window expiry while another dispatch is still executing does not cut
    // this batch loose: the in-flight dispatch flushes it on completion
    // (handoff), so rows keep accumulating for one full execution instead of
    // fragmenting into overlapping partial batches (continuous batching —
    // the wait is bounded by that execution, not by wall-clock).
    cv_.wait(lock, [&] {
      return batch->dispatched || batch->flush_now || shutdown_ ||
             queue.in_flight == 0;
    });
    if (!batch->dispatched && !shutdown_) {
      DispatchLocked(lock, queue, model, batch,
                     batch->flush_now ? CombineFlush::kHandoff : CombineFlush::kWindow);
    }
  }
  // Everyone (leader included — its dispatch set done synchronously) waits
  // for its own result. A batch detached by another thread may still be
  // executing when the leader's wait returns, hence the per-slot flag.
  cv_.wait(lock, [&] { return slot.done || slot.aborted; });

  if (slot.aborted) {
    CombineResult aborted;
    aborted.ok = false;
    aborted.flush = CombineFlush::kShutdown;
    return aborted;
  }
  m_.wait_us->Record(static_cast<double>(clock_->NowUs() - parked_at_us));
  park_span.SetLink(slot.link_trace_id, slot.link_span_id);
  CombineResult out;
  out.prediction = slot.result;
  out.degraded = slot.degraded;
  out.flush = slot.flush;
  out.batch_size = slot.batch_size;
  out.batch_id = slot.batch_id;
  return out;
}

CombineResult BatchCombiner::FastPath(std::unique_lock<std::mutex>& lock,
                                      ModelQueue& queue, const std::string& model,
                                      Slot& slot) {
  queue.in_flight += 1;
  const uint64_t id = next_batch_id_++;
  lock.unlock();
  const Client::MissRow row{slot.inputs, slot.key, slot.stamp, &slot.result};
  client_->ScoreMisses(model, {&row, 1});
  DegradedReason degraded = client_->degraded_reason();
  lock.lock();
  queue.in_flight -= 1;
  m_.fast_path->Increment();
  // Handoff: requests that arrived during this execution are batched and
  // ready — flush them now instead of letting the window run out.
  if (queue.open != nullptr && !queue.open->flush_now && !queue.open->dispatched) {
    queue.open->flush_now = true;
    cv_.notify_all();
  }
  CombineResult out;
  out.prediction = slot.result;
  out.degraded = degraded;
  out.flush = CombineFlush::kFastPath;
  out.batch_size = 1;
  out.batch_id = id;
  return out;
}

void BatchCombiner::DispatchLocked(std::unique_lock<std::mutex>& lock,
                                   ModelQueue& queue, const std::string& model,
                                   const std::shared_ptr<Batch>& batch,
                                   CombineFlush reason) {
  batch->dispatched = true;
  if (queue.open == batch) queue.open.reset();
  queue.in_flight += 1;
  const uint64_t id = next_batch_id_++;
  // Each row writes its answer straight into its slot; the slot's owner
  // reads it only after `done` is set under mu_ below.
  std::vector<Client::MissRow> rows;
  rows.reserve(batch->slots.size());
  for (Slot* s : batch->slots) rows.push_back({s->inputs, s->key, s->stamp, &s->result});

  lock.unlock();
  // One snapshot load, one batched ExecEngine walk: the miss path a lone
  // PredictSingle takes, so results are identical input-for-input.
  rc::obs::TraceContext dispatch_ctx;
  {
    // Parents under the dispatching caller's own park span; the other
    // coalesced callers reach it through follows-from links.
    rc::obs::TraceSpan dispatch_span("combiner/dispatch");
    client_->ScoreMisses(model, rows);
    dispatch_ctx = dispatch_span.context();
  }
  DegradedReason degraded = client_->degraded_reason();
  lock.lock();

  queue.in_flight -= 1;
  const size_t n = batch->slots.size();
  for (size_t i = 0; i < n; ++i) {
    Slot* s = batch->slots[i];
    s->degraded = degraded;
    s->flush = reason;
    s->batch_size = n;
    s->batch_id = id;
    s->link_trace_id = dispatch_ctx.trace_id;
    s->link_span_id = dispatch_ctx.span_id;
    if (s->trace.valid()) {
      // Zero-duration marker in the caller's trace pointing at the dispatch
      // that actually did its work (follows-from, not parent-child: the
      // dispatch ran on another caller's stack in a different trace).
      rc::obs::RecordSpanUnder("combiner/coalesced", s->trace, rc::obs::NowNs(), 0,
                               dispatch_ctx.trace_id, dispatch_ctx.span_id);
    }
    s->done = true;
  }
  pending_ -= n;
  m_.pending->Set(static_cast<double>(pending_));
  m_.batch_size->Record(static_cast<double>(n));
  switch (reason) {
    case CombineFlush::kWindow: m_.flush_window->Increment(); break;
    case CombineFlush::kFull: m_.flush_full->Increment(); break;
    case CombineFlush::kHandoff: m_.flush_handoff->Increment(); break;
    case CombineFlush::kFastPath:
    case CombineFlush::kShutdown: break;  // not dispatch reasons
  }
  // Handoff: a batch that opened while we executed holds requests that have
  // already waited an execution's worth of time — flush it immediately.
  if (queue.open != nullptr && !queue.open->flush_now && !queue.open->dispatched) {
    queue.open->flush_now = true;
  }
  cv_.notify_all();
}

void BatchCombiner::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  shutdown_ = true;
  uint64_t drained = 0;
  for (auto& [model, queue] : queues_) {
    if (queue.open == nullptr) continue;
    for (Slot* s : queue.open->slots) {
      if (!s->done) {
        s->aborted = true;
        ++drained;
      }
    }
    queue.open.reset();
  }
  // Slots in batches already detached for dispatch are not aborted: their
  // dispatch completes and delivers real results.
  pending_ -= drained;
  m_.pending->Set(static_cast<double>(pending_));
  if (drained > 0) m_.flush_shutdown->Increment(drained);
  // Wakes followers (slot.aborted) and leaders parked in clock_->WaitUntil
  // (their predicate checks shutdown_).
  cv_.notify_all();
}

}  // namespace rc::core
