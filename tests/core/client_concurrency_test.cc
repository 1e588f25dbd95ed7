// The paper's client is "a single, general, and thread-safe" library shared
// by all callers in a process; these tests hammer one client from multiple
// threads while the store pushes updates.
//
// Timing audit: every test here coordinates with latches, atomics, and
// bounded iteration counts — no real sleeps, no virtual clock needed. Overlap
// is forced structurally (e.g. kMinPredictions keeps the predictor running
// past the pusher) rather than by racing wall-clock delays.
#include <atomic>
#include <latch>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

class ClientConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rc::trace::WorkloadConfig config;
    config.target_vm_count = 4000;
    config.num_subscriptions = 200;
    config.seed = 777;
    trace_ = new rc::trace::Trace(rc::trace::WorkloadModel(config).Generate());
    PipelineConfig pipeline_config;
    pipeline_config.rf.num_trees = 6;
    pipeline_config.gbt.num_rounds = 6;
    OfflinePipeline pipeline(pipeline_config);
    trained_ = new TrainedModels(pipeline.Run(*trace_));
    // A second version over the same trace (identical feature data,
    // different forests), so a republish flips predictions in a way a
    // snapshot-consistency check can observe.
    PipelineConfig config_b;
    config_b.rf.num_trees = 12;
    config_b.gbt.num_rounds = 3;
    trained_b_ = new TrainedModels(OfflinePipeline(config_b).Run(*trace_));
  }

  static std::vector<ClientInputs> ServableInputs(size_t n) {
    static const rc::trace::VmSizeCatalog catalog;
    std::vector<ClientInputs> inputs;
    for (const auto& vm : trace_->vms()) {
      if (trained_->feature_data.contains(vm.subscription_id)) {
        inputs.push_back(InputsFromVm(vm, catalog));
        inputs.back().deploy_hour = static_cast<int>(inputs.size()) % 24;
      }
      if (inputs.size() == n) break;
    }
    EXPECT_EQ(inputs.size(), n);
    return inputs;
  }

  // Per-row answers of a fresh, cache-off client serving `trained` alone.
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
    for (const auto& in : inputs) refs.push_back(client.PredictSingle("VM_P95UTIL", in));
    return refs;
  }

  static const rc::trace::Trace* trace_;
  static const TrainedModels* trained_;
  static const TrainedModels* trained_b_;
};

const rc::trace::Trace* ClientConcurrencyTest::trace_ = nullptr;
const TrainedModels* ClientConcurrencyTest::trained_ = nullptr;
const TrainedModels* ClientConcurrencyTest::trained_b_ = nullptr;

TEST_F(ClientConcurrencyTest, ParallelPredictionsConsistent) {
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  Client client(&store, ClientConfig{});
  ASSERT_TRUE(client.Initialize());

  static const rc::trace::VmSizeCatalog catalog;
  std::vector<ClientInputs> inputs;
  for (const auto& vm : trace_->vms()) {
    if (trained_->feature_data.contains(vm.subscription_id)) {
      inputs.push_back(InputsFromVm(vm, catalog));
    }
    if (inputs.size() == 64) break;
  }
  ASSERT_FALSE(inputs.empty());

  // Reference results, single-threaded.
  std::vector<Prediction> expected;
  for (const auto& in : inputs) expected.push_back(client.PredictSingle("VM_P95UTIL", in));

  std::atomic<int> mismatches{0};
  auto worker = [&](uint64_t seed) {
    Rng rng(seed);
    for (int iter = 0; iter < 2000; ++iter) {
      size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(inputs.size()) - 1));
      Prediction p = client.PredictSingle("VM_P95UTIL", inputs[idx]);
      if (!p.valid || p.bucket != expected[idx].bucket) mismatches.fetch_add(1);
    }
  };
  std::thread t1(worker, 1), t2(worker, 2), t3(worker, 3);
  t1.join();
  t2.join();
  t3.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ClientConcurrencyTest, PredictionsDuringPushes) {
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  Client client(&store, ClientConfig{});
  ASSERT_TRUE(client.Initialize());

  static const rc::trace::VmSizeCatalog catalog;
  ClientInputs inputs;
  for (const auto& vm : trace_->vms()) {
    if (trained_->feature_data.contains(vm.subscription_id)) {
      inputs = InputsFromVm(vm, catalog);
      break;
    }
  }

  // Start pusher and predictor together, and keep predicting for a minimum
  // iteration count so the loops deterministically overlap — the pusher
  // finishing all its Puts before the predictor's first iteration must not
  // produce total == 0.
  std::latch start(2);
  std::atomic<bool> stop{false};
  std::thread pusher([&] {
    start.arrive_and_wait();
    // Republishing feature data exercises the push listener + result-cache
    // invalidation path concurrently with predictions.
    for (int i = 0; i < 300; ++i) {
      store.Put(FeatureKey(inputs.subscription_id),
                trained_->feature_data.at(inputs.subscription_id).Serialize());
    }
    stop = true;
  });
  constexpr int64_t kMinPredictions = 2000;
  int64_t valid = 0, total = 0;
  start.arrive_and_wait();
  while (!stop.load() || total < kMinPredictions) {
    Prediction p = client.PredictSingle("VM_P95UTIL", inputs);
    ++total;
    if (p.valid) ++valid;
  }
  pusher.join();
  EXPECT_EQ(valid, total);  // feature data never disappears mid-push
  EXPECT_GE(total, kMinPredictions);
}

TEST_F(ClientConcurrencyTest, ClientDestructionDuringPushes) {
  // Regression for a use-after-free: KvStore::Put copies listeners out of
  // the store lock before invoking them, so an in-flight invocation could
  // outlive Unsubscribe and fire into a destroyed Client. Unsubscribe now
  // drains in-flight invocations, making construct/predict/destroy safe
  // while another thread spams Put.
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);

  static const rc::trace::VmSizeCatalog catalog;
  ClientInputs inputs;
  for (const auto& vm : trace_->vms()) {
    if (trained_->feature_data.contains(vm.subscription_id)) {
      inputs = InputsFromVm(vm, catalog);
      break;
    }
  }
  const std::string feature_key = FeatureKey(inputs.subscription_id);
  const std::vector<uint8_t> feature_blob =
      trained_->feature_data.at(inputs.subscription_id).Serialize();

  std::latch start(2);
  std::atomic<bool> stop{false};
  std::thread pusher([&] {
    start.arrive_and_wait();
    while (!stop.load()) {
      std::vector<uint8_t> copy = feature_blob;
      store.Put(feature_key, std::move(copy));
    }
  });
  start.arrive_and_wait();
  for (int i = 0; i < 50; ++i) {
    Client client(&store, ClientConfig{});
    ASSERT_TRUE(client.Initialize());
    Prediction p = client.PredictSingle("VM_P95UTIL", inputs);
    EXPECT_TRUE(p.valid);
  }  // ~Client races with listener dispatch on every iteration
  stop = true;
  pusher.join();
}

TEST_F(ClientConcurrencyTest, ManyReadersWithPusherAndReloader) {
  // Full-system hammer: four predictor threads on the lock-free snapshot
  // path, one pusher republishing feature data (state swap + result-cache
  // invalidation), and foreground ForceReloadCache calls (full state
  // rebuild). Every prediction must stay valid throughout.
  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  Client client(&store, ClientConfig{});
  ASSERT_TRUE(client.Initialize());

  static const rc::trace::VmSizeCatalog catalog;
  std::vector<ClientInputs> inputs;
  for (const auto& vm : trace_->vms()) {
    if (trained_->feature_data.contains(vm.subscription_id)) {
      inputs.push_back(InputsFromVm(vm, catalog));
    }
    if (inputs.size() == 32) break;
  }
  ASSERT_FALSE(inputs.empty());

  constexpr int kReaders = 4;
  std::latch start(kReaders + 2);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> invalid{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      start.arrive_and_wait();
      for (int iter = 0; iter < 3000; ++iter) {
        size_t idx = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(inputs.size()) - 1));
        Prediction p = client.PredictSingle("VM_P95UTIL", inputs[idx]);
        if (!p.valid) invalid.fetch_add(1);
      }
    });
  }
  std::thread pusher([&] {
    start.arrive_and_wait();
    while (!stop.load()) {
      store.Put(FeatureKey(inputs[0].subscription_id),
                trained_->feature_data.at(inputs[0].subscription_id).Serialize());
    }
  });
  start.arrive_and_wait();
  for (int i = 0; i < 5; ++i) client.ForceReloadCache();
  for (auto& t : readers) t.join();
  stop = true;
  pusher.join();
  EXPECT_EQ(invalid.load(), 0);
}

TEST_F(ClientConcurrencyTest, PredictManyDuringRepublishScoresEachCallFromOneSnapshot) {
  constexpr size_t kRows = 8;
  auto inputs = ServableInputs(48);
  std::vector<Prediction> ref_a = References(*trained_, inputs);
  std::vector<Prediction> ref_b = References(*trained_b_, inputs);
  // The two versions must actually disagree somewhere or the consistency
  // check below would be vacuous.
  bool versions_differ = false;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (ref_a[i].bucket != ref_b[i].bucket) versions_differ = true;
  }
  ASSERT_TRUE(versions_differ);

  rc::store::KvStore store;
  OfflinePipeline::Publish(*trained_, store);
  ClientConfig config;
  config.result_cache_capacity = 0;  // every row goes through ScoreMisses
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());

  // Every call sends a window of kRows consecutive inputs. ScoreMisses loads
  // one snapshot per call, so the whole window must match one version even
  // while the republisher flips between them.
  constexpr int kThreads = 6;
  constexpr int kCallsPerThread = 400;
  std::latch start(kThreads + 2);  // workers + republisher + main
  std::atomic<int> running{kThreads};
  std::atomic<int> mixed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 11);
      start.arrive_and_wait();
      for (int call = 0; call < kCallsPerThread; ++call) {
        const size_t first = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(inputs.size() - kRows)));
        std::span<const ClientInputs> window(inputs.data() + first, kRows);
        const std::vector<Prediction> got = client.PredictMany("VM_P95UTIL", window);
        auto all_match = [&](const std::vector<Prediction>& ref) {
          for (size_t i = 0; i < kRows; ++i) {
            const Prediction& want = ref[first + i];
            if (!got[i].valid || got[i].bucket != want.bucket || got[i].score != want.score) {
              return false;
            }
          }
          return true;
        };
        if (got.size() != kRows || (!all_match(ref_a) && !all_match(ref_b))) {
          mixed.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  std::thread republisher([&] {
    start.arrive_and_wait();
    bool publish_a = false;
    while (running.load() > 0) {
      OfflinePipeline::Publish(publish_a ? *trained_ : *trained_b_, store);
      publish_a = !publish_a;
      std::this_thread::yield();
    }
  });
  start.arrive_and_wait();
  for (auto& t : threads) t.join();
  republisher.join();
  EXPECT_EQ(mixed.load(), 0) << "calls whose rows mix model versions";
}

}  // namespace
}  // namespace rc::core
