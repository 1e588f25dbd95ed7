// Stress for cached no-predictions in push mode: callers hammer
// subscriptions the client has never seen (each answered with a cached
// no-prediction) while a pusher introduces their feature records one by
// one. Any call that starts after a Put returned must get the valid answer,
// never a stale cached no-prediction. Also runs under ThreadSanitizer in
// tools/check_tsan.sh.
//
// Coordination is structural (atomics and call counts), with no sleeps: the
// pusher waits for a number of caller predictions before each Put, so every
// subscription is hammered both before and after its record arrives.
#include <array>
#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

constexpr size_t kSubscriptions = 24;
constexpr int kCallers = 3;
// Caller predictions the pusher waits for before each Put.
constexpr uint64_t kCallsPerPut = 400;

class ClientNoPredictionStressTest : public ::testing::Test {
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
    trained_ = new TrainedModels(OfflinePipeline(pipeline_config).Run(*trace_));
  }

  static const rc::trace::Trace* trace_;
  static const TrainedModels* trained_;
};

const rc::trace::Trace* ClientNoPredictionStressTest::trace_ = nullptr;
const TrainedModels* ClientNoPredictionStressTest::trained_ = nullptr;

TEST_F(ClientNoPredictionStressTest, CallsAfterPutNeverSeeStaleNone) {
  static const rc::trace::VmSizeCatalog catalog;
  // Unknown subscriptions: known inputs with fresh subscription ids, each
  // with the feature record the pusher will introduce.
  std::vector<ClientInputs> inputs;
  std::vector<std::vector<uint8_t>> records;
  for (const auto& vm : trace_->vms()) {
    if (inputs.size() == kSubscriptions) break;
    auto it = trained_->feature_data.find(vm.subscription_id);
    if (it == trained_->feature_data.end()) continue;
    ClientInputs in = InputsFromVm(vm, catalog);
    in.subscription_id = 0x5EED'0000'0000ull + inputs.size();
    SubscriptionFeatures features = it->second;
    features.subscription_id = in.subscription_id;
    inputs.push_back(in);
    records.push_back(features.Serialize());
  }
  ASSERT_EQ(inputs.size(), kSubscriptions);

  // The answers once every record is in, from a cache-off client.
  std::vector<Prediction> expected;
  {
    rc::store::KvStore full;
    OfflinePipeline::Publish(*trained_, full);
    for (size_t i = 0; i < kSubscriptions; ++i) {
      full.Put(FeatureKey(inputs[i].subscription_id), records[i]);
    }
    ClientConfig reference_config;
    reference_config.result_cache_capacity = 0;
    Client reference(&full, reference_config);
    ASSERT_TRUE(reference.Initialize());
    for (const ClientInputs& in : inputs) {
      expected.push_back(reference.PredictSingle("VM_P95UTIL", in));
      ASSERT_TRUE(expected.back().valid);
    }
  }

  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  Client client(&store, ClientConfig{});
  ASSERT_TRUE(client.Initialize());

  std::array<std::atomic<bool>, kSubscriptions> published{};
  std::atomic<uint64_t> calls{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> stale{0};
  std::atomic<uint64_t> wrong{0};
  std::latch start(kCallers + 1);

  auto check = [&](size_t i, bool was_published, const Prediction& p) {
    if (!p.valid) {
      if (was_published) stale.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (p.bucket != expected[i].bucket || p.score != expected[i].score) {
      wrong.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 11);
      std::vector<ClientInputs> batch(4);
      std::vector<size_t> rows(batch.size());
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        if (rng.UniformInt(0, 3) == 0) {
          // PredictMany over a random mix of the subscriptions.
          std::vector<bool> was(batch.size());
          for (size_t b = 0; b < batch.size(); ++b) {
            rows[b] = static_cast<size_t>(rng.UniformInt(0, kSubscriptions - 1));
            batch[b] = inputs[rows[b]];
            was[b] = published[rows[b]].load(std::memory_order_acquire);
          }
          const std::vector<Prediction> got = client.PredictMany("VM_P95UTIL", batch);
          for (size_t b = 0; b < batch.size(); ++b) check(rows[b], was[b], got[b]);
        } else {
          const size_t i = static_cast<size_t>(rng.UniformInt(0, kSubscriptions - 1));
          const bool was = published[i].load(std::memory_order_acquire);
          check(i, was, client.PredictSingle("VM_P95UTIL", inputs[i]));
        }
        calls.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  start.arrive_and_wait();
  for (size_t i = 0; i < kSubscriptions; ++i) {
    const uint64_t target = calls.load(std::memory_order_relaxed) + kCallsPerPut;
    while (calls.load(std::memory_order_relaxed) < target) std::this_thread::yield();
    store.Put(FeatureKey(inputs[i].subscription_id), records[i]);
    published[i].store(true, std::memory_order_release);
  }
  const uint64_t target = calls.load(std::memory_order_relaxed) + kCallsPerPut;
  while (calls.load(std::memory_order_relaxed) < target) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : callers) t.join();

  EXPECT_EQ(stale.load(), 0u) << "a call that started after Put returned got a stale none";
  EXPECT_EQ(wrong.load(), 0u) << "a valid answer differs from the cache-off client";
  // Everything is published now: every answer is the valid one.
  for (size_t i = 0; i < kSubscriptions; ++i) {
    const Prediction p = client.PredictSingle("VM_P95UTIL", inputs[i]);
    EXPECT_TRUE(p.valid && p.bucket == expected[i].bucket && p.score == expected[i].score);
  }
  EXPECT_GT(client.stats().no_predictions, 0u);
}

}  // namespace
}  // namespace rc::core
