// Concurrency stress for BatchCombiner: real threads hammering the coalesced
// path while models republish mid-storm, a park/flush shutdown race aimed at
// TSan (tools/check_tsan.sh runs this file explicitly), and a property test
// that random interleavings produce bit-identical results to the
// combiner-off path. No test here sleeps real time to coordinate: storms are
// bounded by iteration counts and state spins, and the property test runs on
// a VirtualClock.
#include "src/core/batch_combiner.h"

#include <atomic>
#include <cstdint>
#include <latch>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

constexpr char kModel[] = "VM_P95UTIL";

class BatchCombinerStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rc::trace::WorkloadConfig config;
    config.target_vm_count = 3000;
    config.num_subscriptions = 150;
    config.seed = 90210;
    trace_ = new rc::trace::Trace(rc::trace::WorkloadModel(config).Generate());
    // Two model versions over the same trace (identical feature data,
    // different forests) so a mid-storm republish flips predictions in a way
    // the snapshot-consistency check can observe.
    PipelineConfig config_a;
    config_a.rf.num_trees = 6;
    config_a.gbt.num_rounds = 6;
    trained_a_ = new TrainedModels(OfflinePipeline(config_a).Run(*trace_));
    PipelineConfig config_b;
    config_b.rf.num_trees = 12;
    config_b.gbt.num_rounds = 3;
    trained_b_ = new TrainedModels(OfflinePipeline(config_b).Run(*trace_));
  }

  static std::vector<ClientInputs> ServableInputs(size_t n) {
    static const rc::trace::VmSizeCatalog catalog;
    std::vector<ClientInputs> inputs;
    for (const auto& vm : trace_->vms()) {
      if (trained_a_->feature_data.contains(vm.subscription_id)) {
        inputs.push_back(InputsFromVm(vm, catalog));
        inputs.back().deploy_hour = static_cast<int>(inputs.size()) % 24;
      }
      if (inputs.size() == n) break;
    }
    EXPECT_EQ(inputs.size(), n);
    return inputs;
  }

  static std::vector<Prediction> References(const TrainedModels& trained,
                                            const std::vector<ClientInputs>& inputs) {
    rc::store::KvStore store;
    OfflinePipeline::Publish(trained, store);
    ClientConfig config;
    config.result_cache_capacity = 0;
    Client client(&store, config);
    EXPECT_TRUE(client.Initialize());
    std::vector<Prediction> refs;
    refs.reserve(inputs.size());
    for (const auto& in : inputs) refs.push_back(client.PredictSingle(kModel, in));
    return refs;
  }

  static const rc::trace::Trace* trace_;
  static const TrainedModels* trained_a_;
  static const TrainedModels* trained_b_;
};

const rc::trace::Trace* BatchCombinerStressTest::trace_ = nullptr;
const TrainedModels* BatchCombinerStressTest::trained_a_ = nullptr;
const TrainedModels* BatchCombinerStressTest::trained_b_ = nullptr;

TEST_F(BatchCombinerStressTest, StormDuringRepublishServesEachBatchFromOneSnapshot) {
  auto inputs = ServableInputs(48);
  std::vector<Prediction> ref_a = References(*trained_a_, inputs);
  std::vector<Prediction> ref_b = References(*trained_b_, inputs);
  // The two versions must actually disagree somewhere or the consistency
  // check below would be vacuous.
  bool versions_differ = false;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (ref_a[i].bucket != ref_b[i].bucket) versions_differ = true;
  }
  ASSERT_TRUE(versions_differ);

  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_a_, store);
  ClientConfig config;
  config.result_cache_capacity = 0;  // a cache hit would bypass the combiner
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  CombinerOptions cc;
  cc.max_wait_us = 50;
  cc.max_batch = 8;
  // A lone 2µs prediction rarely overlaps another; force every caller to
  // park so the storm actually forms multi-row batches to check.
  cc.fast_path_when_idle = false;
  BatchCombiner combiner(&client, cc);

  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 1200;
  struct Observation {
    size_t input_idx;
    uint64_t batch_id;
    int bucket;
  };
  std::vector<std::vector<Observation>> per_thread(kThreads);
  std::latch start(kThreads + 2);  // workers + republisher + main
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 11);
      per_thread[static_cast<size_t>(t)].reserve(kItersPerThread);
      start.arrive_and_wait();
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        size_t idx = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(inputs.size()) - 1));
        CombineResult r = combiner.Predict(kModel, inputs[idx]);
        ASSERT_TRUE(r.ok);
        ASSERT_TRUE(r.prediction.valid);
        per_thread[static_cast<size_t>(t)].push_back({idx, r.batch_id, r.prediction.bucket});
      }
      running.fetch_sub(1);
    });
  }
  std::thread republisher([&] {
    start.arrive_and_wait();
    bool publish_a = false;
    while (running.load() > 0) {
      OfflinePipeline::Publish(publish_a ? *trained_a_ : *trained_b_, store);
      publish_a = !publish_a;
      std::this_thread::yield();
    }
  });
  start.arrive_and_wait();
  for (auto& t : threads) t.join();
  republisher.join();
  combiner.Shutdown();

  // Every batch must be explainable by a single model version: the combiner
  // dispatches one PredictMany per batch, which pins one model snapshot, so
  // rows coalesced into the same batch_id can never mix versions.
  std::map<uint64_t, std::vector<Observation>> batches;
  for (const auto& obs_list : per_thread) {
    for (const auto& obs : obs_list) batches[obs.batch_id].push_back(obs);
  }
  size_t multi_row_batches = 0;
  for (const auto& [batch_id, rows] : batches) {
    if (rows.size() > 1) ++multi_row_batches;
    bool all_a = true, all_b = true;
    for (const auto& obs : rows) {
      if (obs.bucket != ref_a[obs.input_idx].bucket) all_a = false;
      if (obs.bucket != ref_b[obs.input_idx].bucket) all_b = false;
    }
    EXPECT_TRUE(all_a || all_b)
        << "batch " << batch_id << " (" << rows.size()
        << " rows) mixes model versions";
  }
  // With 6 threads funneling through one combiner some coalescing must have
  // happened, or the test exercised nothing.
  EXPECT_GT(multi_row_batches, 0u);
}

TEST_F(BatchCombinerStressTest, ParkFlushShutdownRace) {
  // TSan target: threads parking and flushing while Shutdown tears the open
  // batch down, repeatedly. Callers that lose the race observe ok=false and
  // fall back (as Client::PredictSingleImpl does) to the direct path.
  auto inputs = ServableInputs(8);
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_a_, store);
  ClientConfig config;
  config.result_cache_capacity = 0;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  constexpr int kCycles = 25;
  constexpr int kThreads = 8;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    CombinerOptions cc;
    cc.max_wait_us = 5'000;  // long enough that shutdown usually finds parked callers
    cc.max_batch = kThreads + 1;  // never flushes full: window/handoff/shutdown only
    cc.fast_path_when_idle = (cycle % 2 == 0);
    BatchCombiner combiner(&client, cc);
    std::latch start(kThreads + 1);
    std::atomic<int> drained{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (int iter = 0;; ++iter) {
          CombineResult r = combiner.Predict(kModel, inputs[static_cast<size_t>(t) % inputs.size()]);
          if (!r.ok) {
            // Shut down mid-park: the caller still gets its answer directly.
            Prediction p = client.PredictSingle(kModel, inputs[static_cast<size_t>(t) % inputs.size()]);
            EXPECT_TRUE(p.valid);
            drained.fetch_add(1);
            return;
          }
          EXPECT_TRUE(r.prediction.valid);
        }
      });
    }
    start.arrive_and_wait();
    // Let the storm park at least one caller, then yank the combiner away.
    while (combiner.pending() == 0) std::this_thread::yield();
    combiner.Shutdown();
    for (auto& t : threads) t.join();
    EXPECT_EQ(drained.load(), kThreads);
    EXPECT_EQ(combiner.pending(), 0u);
  }
}

TEST_F(BatchCombinerStressTest, RandomInterleavingsMatchUncoalescedBitExactly) {
  // Property: whatever batches the scheduler happens to form, every caller's
  // result is bit-identical to the combiner-off PredictSingle answer. Runs
  // on a VirtualClock; window expiries are driven by the main thread, so the
  // interleaving (not time) is the only source of randomness.
  auto inputs = ServableInputs(32);
  std::vector<Prediction> reference = References(*trained_a_, inputs);

  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_a_, store);
  rc::common::VirtualClock clock;
  ClientConfig config;
  config.result_cache_capacity = 0;
  config.clock = &clock;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  CombinerOptions cc;
  cc.max_wait_us = 40;
  cc.max_batch = 4;
  BatchCombiner combiner(&client, cc);

  Rng rng(20260807);
  constexpr int kRounds = 60;
  for (int round = 0; round < kRounds; ++round) {
    int wave = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<size_t> picked;
    for (int i = 0; i < wave; ++i) {
      picked.push_back(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(inputs.size()) - 1)));
    }
    std::vector<CombineResult> results(picked.size());
    std::atomic<int> done{0};
    std::vector<std::thread> threads;
    for (size_t i = 0; i < picked.size(); ++i) {
      threads.emplace_back([&, i] {
        results[i] = combiner.Predict(kModel, inputs[picked[i]]);
        done.fetch_add(1);
      });
    }
    // Drive the clock until the wave drains: any parked leader is released
    // by expiring its window. (Callers on the fast path or flushed by a full
    // batch never park and need no time at all.)
    while (done.load() < wave) {
      if (clock.waiters() > 0) {
        clock.AdvanceUs(cc.max_wait_us);
      } else {
        std::this_thread::yield();
      }
    }
    for (auto& t : threads) t.join();
    for (size_t i = 0; i < picked.size(); ++i) {
      ASSERT_TRUE(results[i].ok);
      const Prediction& got = results[i].prediction;
      const Prediction& want = reference[picked[i]];
      EXPECT_EQ(got.valid, want.valid);
      EXPECT_EQ(got.bucket, want.bucket);
      EXPECT_EQ(got.score, want.score) << "round " << round << " caller " << i
                                       << " (batch of " << results[i].batch_size << ")";
    }
  }
  combiner.Shutdown();
}

}  // namespace
}  // namespace rc::core
