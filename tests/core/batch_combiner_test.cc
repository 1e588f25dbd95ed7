// Deterministic BatchCombiner suite. Every test drives a VirtualClock, so
// window expiries and the backoff-driven choreography are exact: there is no
// real sleeping anywhere in this file (tools/check_all.sh lints for it), and
// thread coordination uses VirtualClock::AwaitWaiters / slept_us milestones
// plus pending() spins — all of which observe provable states, never timing.
#include "src/core/batch_combiner.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/faults.h"
#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

constexpr char kModel[] = "VM_P95UTIL";

class BatchCombinerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rc::trace::WorkloadConfig config;
    config.target_vm_count = 3000;
    config.num_subscriptions = 150;
    config.seed = 4242;
    trace_ = new rc::trace::Trace(rc::trace::WorkloadModel(config).Generate());
    PipelineConfig pipeline_config;
    pipeline_config.rf.num_trees = 6;
    pipeline_config.gbt.num_rounds = 6;
    OfflinePipeline pipeline(pipeline_config);
    trained_ = new TrainedModels(pipeline.Run(*trace_));
  }

  void SetUp() override { rc::faults::Registry::Global().DisarmAll(); }
  void TearDown() override { rc::faults::Registry::Global().DisarmAll(); }

  // Distinct inputs whose feature data is present in the trained set.
  static std::vector<ClientInputs> ServableInputs(size_t n) {
    static const rc::trace::VmSizeCatalog catalog;
    std::vector<ClientInputs> inputs;
    for (const auto& vm : trace_->vms()) {
      if (trained_->feature_data.contains(vm.subscription_id)) {
        inputs.push_back(InputsFromVm(vm, catalog));
        // Vary deploy_hour so every input has a distinct cache key even when
        // VMs collide on the other fields.
        inputs.back().deploy_hour = static_cast<int>(inputs.size()) % 24;
      }
      if (inputs.size() == n) break;
    }
    EXPECT_EQ(inputs.size(), n);
    return inputs;
  }

  // Spin (real time, no virtual time) until the combiner holds `n` parked
  // requests. pending() counts parked + dispatching slots, so reaching n
  // proves every caller has joined its batch.
  static void AwaitPending(const BatchCombiner& combiner, size_t n) {
    while (combiner.pending() < n) std::this_thread::yield();
  }

  static const rc::trace::Trace* trace_;
  static const TrainedModels* trained_;
};

const rc::trace::Trace* BatchCombinerTest::trace_ = nullptr;
const TrainedModels* BatchCombinerTest::trained_ = nullptr;

TEST_F(BatchCombinerTest, WindowExpiryFlushesAccumulatedBatch) {
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  rc::common::VirtualClock clock;
  ClientConfig config;
  config.result_cache_capacity = 0;  // keep every call observable
  config.clock = &clock;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  CombinerOptions cc;
  cc.max_wait_us = 40;
  cc.max_batch = 64;
  cc.fast_path_when_idle = false;  // force even the first caller to park
  BatchCombiner combiner(&client, cc);

  auto inputs = ServableInputs(3);
  std::vector<Prediction> reference;
  for (const auto& in : inputs) reference.push_back(client.PredictSingle(kModel, in));

  std::vector<CombineResult> results(3);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < 3; ++i) {
    threads.emplace_back(
        [&, i] { results[i] = combiner.Predict(kModel, inputs[i]); });
  }
  AwaitPending(combiner, 3);  // all three joined the batch...
  clock.AwaitWaiters(1);      // ...and the leader is parked on the window
  clock.AdvanceUs(39);
  EXPECT_EQ(combiner.pending(), 3u);  // window is 40: one µs short must hold
  clock.AdvanceUs(1);
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(results[i].ok);
    EXPECT_EQ(results[i].flush, CombineFlush::kWindow) << i;
    EXPECT_EQ(results[i].batch_size, 3u) << i;
    EXPECT_EQ(results[i].batch_id, results[0].batch_id) << i;
    // Per-caller routing: each caller gets exactly its own prediction.
    EXPECT_EQ(results[i].prediction.bucket, reference[i].bucket) << i;
    EXPECT_DOUBLE_EQ(results[i].prediction.score, reference[i].score) << i;
  }
  EXPECT_EQ(combiner.pending(), 0u);
  EXPECT_EQ(clock.NowUs(), 40);
}

TEST_F(BatchCombinerTest, FlushOnFullDispatchesWithoutAnyTimePassing) {
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  rc::common::VirtualClock clock;
  ClientConfig config;
  config.result_cache_capacity = 0;
  config.clock = &clock;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  CombinerOptions cc;
  cc.max_wait_us = 1'000'000;  // the window must never be the flush reason
  cc.max_batch = 4;
  cc.fast_path_when_idle = false;
  BatchCombiner combiner(&client, cc);

  auto inputs = ServableInputs(4);
  std::vector<CombineResult> results(4);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < 4; ++i) {
    threads.emplace_back(
        [&, i] { results[i] = combiner.Predict(kModel, inputs[i]); });
  }
  // No clock advance at all: the 4th arrival must flush the full batch.
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(results[i].ok);
    EXPECT_EQ(results[i].flush, CombineFlush::kFull) << i;
    EXPECT_EQ(results[i].batch_size, 4u) << i;
    EXPECT_EQ(results[i].batch_id, results[0].batch_id) << i;
    EXPECT_TRUE(results[i].prediction.valid) << i;
  }
  EXPECT_EQ(clock.NowUs(), 0);  // flush-on-full needed zero virtual time
}

TEST_F(BatchCombinerTest, LoneCallerTakesFastPathWithoutParking) {
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  rc::common::VirtualClock clock;
  ClientConfig config;
  config.result_cache_capacity = 0;
  config.clock = &clock;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  CombinerOptions cc;
  cc.max_wait_us = 40;
  cc.fast_path_when_idle = true;
  BatchCombiner combiner(&client, cc);

  auto inputs = ServableInputs(1);
  Prediction reference = client.PredictSingle(kModel, inputs[0]);
  CombineResult r = combiner.Predict(kModel, inputs[0]);

  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.flush, CombineFlush::kFastPath);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_EQ(r.prediction.bucket, reference.bucket);
  EXPECT_DOUBLE_EQ(r.prediction.score, reference.score);
  // The call never parked and never consumed virtual time: a lone caller
  // pays nothing for the combiner being enabled.
  EXPECT_EQ(clock.NowUs(), 0);
  EXPECT_EQ(combiner.pending(), 0u);
}

TEST_F(BatchCombinerTest, DuplicateKeysRouteToEveryCaller) {
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  rc::common::VirtualClock clock;
  ClientConfig config;
  config.result_cache_capacity = 0;
  config.clock = &clock;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  CombinerOptions cc;
  cc.max_wait_us = 1'000'000;
  cc.max_batch = 3;
  cc.fast_path_when_idle = false;
  BatchCombiner combiner(&client, cc);

  // Two callers share one input (and thus one cache key); PredictMany
  // deduplicates them into a single scored row that must fan back out.
  auto inputs = ServableInputs(2);
  const ClientInputs& dup = inputs[0];
  const ClientInputs& other = inputs[1];
  Prediction dup_ref = client.PredictSingle(kModel, dup);
  Prediction other_ref = client.PredictSingle(kModel, other);

  std::vector<CombineResult> results(3);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { results[0] = combiner.Predict(kModel, dup); });
  threads.emplace_back([&] { results[1] = combiner.Predict(kModel, other); });
  threads.emplace_back([&] { results[2] = combiner.Predict(kModel, dup); });
  for (auto& t : threads) t.join();

  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(results[i].ok);
    EXPECT_EQ(results[i].flush, CombineFlush::kFull) << i;
    EXPECT_EQ(results[i].batch_size, 3u) << i;
  }
  EXPECT_EQ(results[0].prediction.bucket, dup_ref.bucket);
  EXPECT_DOUBLE_EQ(results[0].prediction.score, dup_ref.score);
  EXPECT_EQ(results[2].prediction.bucket, dup_ref.bucket);
  EXPECT_DOUBLE_EQ(results[2].prediction.score, dup_ref.score);
  EXPECT_EQ(results[1].prediction.bucket, other_ref.bucket);
  EXPECT_DOUBLE_EQ(results[1].prediction.score, other_ref.score);
}

TEST_F(BatchCombinerTest, HandoffFlushesBatchFormedDuringDispatch) {
  // Choreography: a full batch of two feature-less inputs dispatches and
  // blocks inside the store-retry backoff (faults + VirtualClock sleeps);
  // a third caller parks meanwhile; when the dispatch completes it must
  // flush that open batch immediately (kHandoff) with no window wait.
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  rc::common::VirtualClock clock;
  ClientConfig config;
  config.mode = CacheMode::kPull;  // misses consult the store (and its faults)
  config.result_cache_capacity = 0;
  config.store_max_retries = 1;
  config.store_retry_backoff_us = 500;
  config.breaker_failure_threshold = 0;  // keep every read's backoff schedule
  config.clock = &clock;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  auto inputs = ServableInputs(1);
  // Pre-warm the snapshot (pull mode) so the handed-off row executes without
  // touching the store, and PredictMiss skips the model fetch for the
  // feature-less rows (model already ready).
  ASSERT_TRUE(client.PredictSingle(kModel, inputs[0]).valid);

  CombinerOptions cc;
  cc.max_wait_us = 1'000'000;  // flushes below must come from full + handoff
  cc.max_batch = 2;
  cc.fast_path_when_idle = false;
  BatchCombiner combiner(&client, cc);

  rc::faults::FaultSpec err;
  err.kind = rc::faults::FaultKind::kError;
  rc::faults::ScopedFault storm("client/store_read", err);

  ClientInputs missing_a = inputs[0];
  missing_a.subscription_id = 9'000'000'001;  // no feature data anywhere
  ClientInputs missing_b = inputs[0];
  missing_b.subscription_id = 9'000'000'002;

  std::vector<CombineResult> results(3);
  std::thread ta([&] { results[0] = combiner.Predict(kModel, missing_a); });
  AwaitPending(combiner, 1);
  clock.AwaitWaiters(1);  // leader parked on the (never-expiring) window
  // The filler dispatches the now-full batch on its own thread and blocks in
  // the feature fetch: one 500µs backoff nap per row.
  std::thread tb([&] { results[1] = combiner.Predict(kModel, missing_b); });
  while (clock.slept_us() < 500) std::this_thread::yield();  // row A napping
  // Dispatch is provably in flight: park the third caller behind it.
  std::thread tc([&] { results[2] = combiner.Predict(kModel, inputs[0]); });
  AwaitPending(combiner, 3);
  clock.AdvanceUs(500);  // release row A's nap; row B's read then naps
  while (clock.slept_us() < 1000) std::this_thread::yield();
  clock.AdvanceUs(500);  // release row B; the dispatch completes
  // No further advance: the handoff must flush the third caller's batch.
  ta.join();
  tb.join();
  tc.join();

  EXPECT_EQ(results[0].flush, CombineFlush::kFull);
  EXPECT_EQ(results[1].flush, CombineFlush::kFull);
  EXPECT_EQ(results[0].batch_size, 2u);
  EXPECT_FALSE(results[0].prediction.valid);  // feature-less rows answer None
  EXPECT_FALSE(results[1].prediction.valid);
  ASSERT_TRUE(results[2].ok);
  EXPECT_EQ(results[2].flush, CombineFlush::kHandoff);
  EXPECT_EQ(results[2].batch_size, 1u);
  EXPECT_TRUE(results[2].prediction.valid);
  EXPECT_EQ(clock.NowUs(), 1000);  // exactly the two released backoff naps
}

TEST_F(BatchCombinerTest, DegradedStateRidesAlongWithResults) {
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  rc::common::VirtualClock clock;
  ClientConfig config;
  config.result_cache_capacity = 0;
  config.clock = &clock;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  CombinerOptions cc;
  cc.fast_path_when_idle = true;
  BatchCombiner combiner(&client, cc);

  auto inputs = ServableInputs(1);
  EXPECT_EQ(combiner.Predict(kModel, inputs[0]).degraded, DegradedReason::kNone);

  // An outage marks the client degraded; predictions still flow from the
  // last-good snapshot and the combiner surfaces the reason per result.
  store.SetAvailable(false);
  client.ForceReloadCache();
  CombineResult r = combiner.Predict(kModel, inputs[0]);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.prediction.valid);
  EXPECT_EQ(r.degraded, DegradedReason::kStoreOutage);
}

TEST_F(BatchCombinerTest, ShutdownDrainsParkedCallersWithError) {
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  rc::common::VirtualClock clock;
  ClientConfig config;
  config.result_cache_capacity = 0;
  config.clock = &clock;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  CombinerOptions cc;
  cc.max_wait_us = 1'000'000;
  cc.fast_path_when_idle = false;
  BatchCombiner combiner(&client, cc);

  auto inputs = ServableInputs(2);
  std::vector<CombineResult> results(2);
  std::thread ta([&] { results[0] = combiner.Predict(kModel, inputs[0]); });
  std::thread tb([&] { results[1] = combiner.Predict(kModel, inputs[1]); });
  AwaitPending(combiner, 2);
  clock.AwaitWaiters(1);
  combiner.Shutdown();
  ta.join();
  tb.join();

  for (size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(results[i].ok) << i;
    EXPECT_EQ(results[i].flush, CombineFlush::kShutdown) << i;
  }
  EXPECT_EQ(combiner.pending(), 0u);
  // Post-shutdown calls fail fast instead of parking forever.
  EXPECT_FALSE(combiner.Predict(kModel, inputs[0]).ok);
  combiner.Shutdown();  // idempotent
}

TEST_F(BatchCombinerTest, ClientOwnedCombinerCoalescesPredictSingle) {
  // End-to-end through Client::PredictSingle: misses route into the client's
  // own combiner; cache hits (second round) bypass it entirely.
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  rc::common::VirtualClock clock;
  ClientConfig config;
  config.clock = &clock;
  config.combiner.enabled = true;
  config.combiner.max_batch = 3;
  config.combiner.max_wait_us = 1'000'000;
  config.combiner.fast_path_when_idle = false;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());
  ASSERT_NE(client.combiner(), nullptr);

  auto inputs = ServableInputs(3);
  std::vector<Prediction> first(3);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] { first[i] = client.PredictSingle(kModel, inputs[i]); });
  }
  for (auto& t : threads) t.join();  // third caller flushed the full batch
  for (const auto& p : first) EXPECT_TRUE(p.valid);
  // Each call probes once, in PredictSingle; the dispatch scores the parked
  // rows without probing again: 3 misses for 3 requests, 0 hits.
  EXPECT_EQ(client.stats().result_misses, 3u);
  EXPECT_EQ(client.stats().result_hits, 0u);

  // Round two: all hits, combiner untouched (pending stays empty, and the
  // calls return without any clock interaction).
  for (size_t i = 0; i < 3; ++i) {
    Prediction p = client.PredictSingle(kModel, inputs[i]);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.bucket, first[i].bucket);
  }
  EXPECT_EQ(client.stats().result_hits, 3u);
  EXPECT_EQ(clock.NowUs(), 0);
}

}  // namespace
}  // namespace rc::core
