// Client library ("client DLL") behaviour: Table 2 API, caching regimes,
// no-prediction handling, outage fallbacks.
#include "src/core/client.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/offline_pipeline.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

using rc::store::KvStore;
using rc::trace::Trace;
using rc::trace::WorkloadConfig;
using rc::trace::WorkloadModel;

class ClientTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.target_vm_count = 6000;
    config.num_subscriptions = 300;
    config.seed = 909;
    trace_ = new Trace(WorkloadModel(config).Generate());
    PipelineConfig pipeline_config;
    pipeline_config.rf.num_trees = 8;
    pipeline_config.gbt.num_rounds = 8;
    OfflinePipeline pipeline(pipeline_config);
    trained_ = new TrainedModels(pipeline.Run(*trace_));
  }

  void SetUp() override {
    store_ = std::make_unique<KvStore>();
    OfflinePipeline::Publish(*trained_, *store_);
    disk_dir_ = ::testing::TempDir() + "/rc_client_test_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(disk_dir_);
  }

  void TearDown() override { std::filesystem::remove_all(disk_dir_); }

  // Inputs for a subscription that exists in the published feature data.
  ClientInputs KnownInputs() const {
    static const rc::trace::VmSizeCatalog catalog;
    for (const auto& vm : trace_->vms()) {
      if (trained_->feature_data.contains(vm.subscription_id)) {
        return InputsFromVm(vm, catalog);
      }
    }
    ADD_FAILURE() << "no known subscription";
    return {};
  }

  static const Trace* trace_;
  static const TrainedModels* trained_;
  std::unique_ptr<KvStore> store_;
  std::string disk_dir_;
};

const Trace* ClientTest::trace_ = nullptr;
const TrainedModels* ClientTest::trained_ = nullptr;

TEST_F(ClientTest, InitializeAndListModels) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  auto models = client.GetAvailableModels();
  ASSERT_EQ(models.size(), 6u);
  EXPECT_TRUE(std::find(models.begin(), models.end(), "VM_P95UTIL") != models.end());
}

TEST_F(ClientTest, PredictSingleKnownSubscription) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  Prediction p = client.PredictSingle("VM_P95UTIL", KnownInputs());
  ASSERT_TRUE(p.valid);
  EXPECT_GE(p.bucket, 0);
  EXPECT_LT(p.bucket, 4);
  EXPECT_GT(p.score, 0.0);
  EXPECT_LE(p.score, 1.0);
}

TEST_F(ClientTest, ResultCacheHitsOnRepeat) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  ClientInputs inputs = KnownInputs();
  Prediction first = client.PredictSingle("VM_AVGUTIL", inputs);
  Prediction second = client.PredictSingle("VM_AVGUTIL", inputs);
  EXPECT_EQ(first.bucket, second.bucket);
  auto stats = client.stats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 1u);
  EXPECT_EQ(stats.model_executions, 1u);
}

TEST_F(ClientTest, UnknownModelNoPrediction) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  Prediction p = client.PredictSingle("NOT_A_MODEL", KnownInputs());
  EXPECT_FALSE(p.valid);
  EXPECT_EQ(client.stats().no_predictions, 1u);
}

TEST_F(ClientTest, UnknownSubscriptionNoPredictionInPushMode) {
  // Paper: a prediction request for a recently created subscription returns
  // no-prediction until feature data is pushed.
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  ClientInputs inputs = KnownInputs();
  inputs.subscription_id = 999'999'999;
  Prediction p = client.PredictSingle("VM_P95UTIL", inputs);
  EXPECT_FALSE(p.valid);
}

TEST_F(ClientTest, PushUpdatesInvalidateResults) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  ClientInputs inputs = KnownInputs();
  client.PredictSingle("VM_P95UTIL", inputs);
  EXPECT_EQ(client.stats().result_misses, 1u);
  // Publish a fresh feature-data record for this subscription: the push
  // must reach the client's caches and clear cached results.
  SubscriptionFeatures features;
  features.subscription_id = inputs.subscription_id;
  features.vm_count = 1;
  store_->Put(FeatureKey(inputs.subscription_id), features.Serialize());
  client.PredictSingle("VM_P95UTIL", inputs);
  auto stats = client.stats();
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.result_misses, 2u);
}

TEST_F(ClientTest, PushModeNewSubscriptionAppearsAfterPush) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  ClientInputs inputs = KnownInputs();
  inputs.subscription_id = 123'456'789;
  EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", inputs).valid);
  SubscriptionFeatures features;
  features.subscription_id = inputs.subscription_id;
  features.vm_count = 4;
  store_->Put(FeatureKey(inputs.subscription_id), features.Serialize());
  EXPECT_TRUE(client.PredictSingle("VM_P95UTIL", inputs).valid);
}

TEST_F(ClientTest, PullModeLazyLoads) {
  ClientConfig config;
  config.mode = CacheMode::kPull;
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  // Nothing loaded yet.
  EXPECT_TRUE(client.GetAvailableModels().empty());
  Prediction p = client.PredictSingle("VM_P95UTIL", KnownInputs());
  EXPECT_TRUE(p.valid);
  EXPECT_GT(client.stats().store_fetches, 0u);
  EXPECT_EQ(client.GetAvailableModels().size(), 1u);
}

TEST_F(ClientTest, PullNeverBlocksReturnsNoPredictionThenServes) {
  ClientConfig config;
  config.mode = CacheMode::kPull;
  config.pull_never_blocks = true;
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  ClientInputs inputs = KnownInputs();
  // First request: caches cold -> no-prediction, warms in the background.
  EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", inputs).valid);
  // Second request: warm -> served.
  EXPECT_TRUE(client.PredictSingle("VM_P95UTIL", inputs).valid);
}

TEST_F(ClientTest, OutageFallsBackToDisk) {
  ClientConfig config;
  config.mode = CacheMode::kPull;
  config.disk_cache_dir = disk_dir_;
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  ClientInputs inputs = KnownInputs();
  ASSERT_TRUE(client.PredictSingle("VM_P95UTIL", inputs).valid);  // warms disk

  // Second client starts during an outage: disk mirror must serve.
  store_->SetAvailable(false);
  Client cold(store_.get(), config);
  ASSERT_TRUE(cold.Initialize());
  Prediction p = cold.PredictSingle("VM_P95UTIL", inputs);
  EXPECT_TRUE(p.valid);
  EXPECT_GT(cold.stats().disk_hits, 0u);
}

TEST_F(ClientTest, ExpiredDiskCacheIgnored) {
  ClientConfig config;
  config.mode = CacheMode::kPull;
  config.disk_cache_dir = disk_dir_;
  config.disk_expiry_seconds = 1;
  {
    Client warm(store_.get(), config);
    ASSERT_TRUE(warm.Initialize());
    warm.PredictSingle("VM_P95UTIL", KnownInputs());
  }
  // Timestamps are whole seconds; sleep past expiry + rounding.
  std::this_thread::sleep_for(std::chrono::milliseconds(2300));
  store_->SetAvailable(false);
  Client cold(store_.get(), config);
  cold.Initialize();
  // Disk entries are expired; during the outage there is no data.
  EXPECT_FALSE(cold.PredictSingle("VM_P95UTIL", KnownInputs()).valid);
}

TEST_F(ClientTest, PushModeColdStartDuringOutageUsesDiskIndex) {
  ClientConfig config;
  config.disk_cache_dir = disk_dir_;
  {
    Client warm(store_.get(), config);
    ASSERT_TRUE(warm.Initialize());  // push mode: mirrors everything to disk
  }
  store_->SetAvailable(false);
  Client cold(store_.get(), config);
  ASSERT_TRUE(cold.Initialize());
  EXPECT_EQ(cold.GetAvailableModels().size(), 6u);
  EXPECT_TRUE(cold.PredictSingle("VM_P95UTIL", KnownInputs()).valid);
}

TEST_F(ClientTest, FlushCacheDropsEverything) {
  ClientConfig config;
  config.disk_cache_dir = disk_dir_;
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  ASSERT_TRUE(client.PredictSingle("VM_P95UTIL", KnownInputs()).valid);
  client.FlushCache();
  EXPECT_TRUE(client.GetAvailableModels().empty());
  // Push mode after flush: no reload until ForceReloadCache.
  EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", KnownInputs()).valid);
  client.ForceReloadCache();
  EXPECT_TRUE(client.PredictSingle("VM_P95UTIL", KnownInputs()).valid);
}

TEST_F(ClientTest, PredictManyMatchesSingles) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  std::vector<ClientInputs> batch(3, KnownInputs());
  batch[1].deploy_hour = (batch[1].deploy_hour + 1) % 24;
  batch[2].subscription_id = 999'999'999;  // unknown
  auto results = client.PredictMany("VM_AVGUTIL", batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].valid);
  EXPECT_TRUE(results[1].valid);
  EXPECT_FALSE(results[2].valid);
  EXPECT_EQ(results[0].bucket, client.PredictSingle("VM_AVGUTIL", batch[0]).bucket);
}

// Regression: a batch of identical inputs used to featurize and score every
// duplicate row and re-insert the same result-cache entry N times. Duplicate
// keys must collapse to one model execution, fanned out to every row.
TEST_F(ClientTest, PredictManyDeduplicatesIdenticalInputs) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  std::vector<ClientInputs> batch(16, KnownInputs());
  auto results = client.PredictMany("VM_AVGUTIL", batch);
  ASSERT_EQ(results.size(), batch.size());
  for (const Prediction& p : results) {
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.bucket, results[0].bucket);
    EXPECT_EQ(p.score, results[0].score);
  }
  auto stats = client.stats();
  EXPECT_EQ(stats.model_executions, 1u);
  EXPECT_EQ(stats.result_misses, batch.size());  // every probe missed...
  EXPECT_EQ(stats.result_hits, 0u);              // ...before the single execute
  // The cached entry serves the whole batch on repeat.
  client.PredictMany("VM_AVGUTIL", batch);
  stats = client.stats();
  EXPECT_EQ(stats.model_executions, 1u);
  EXPECT_EQ(stats.result_hits, batch.size());
}

// Mixed batch: duplicates of two distinct keys -> exactly two executions,
// and each row gets the prediction for its own key.
TEST_F(ClientTest, PredictManyDeduplicatesMixedBatch) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  ClientInputs a = KnownInputs();
  ClientInputs b = a;
  b.deploy_hour = (b.deploy_hour + 1) % 24;
  std::vector<ClientInputs> batch = {a, b, a, b, a, a};
  auto results = client.PredictMany("VM_AVGUTIL", batch);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(client.stats().model_executions, 2u);
  Prediction pa = client.PredictSingle("VM_AVGUTIL", a);
  Prediction pb = client.PredictSingle("VM_AVGUTIL", b);
  for (size_t i : {0u, 2u, 4u, 5u}) {
    EXPECT_EQ(results[i].bucket, pa.bucket) << "row " << i;
    EXPECT_EQ(results[i].score, pa.score) << "row " << i;
  }
  for (size_t i : {1u, 3u}) {
    EXPECT_EQ(results[i].bucket, pb.bucket) << "row " << i;
    EXPECT_EQ(results[i].score, pb.score) << "row " << i;
  }
  // The singles above were cache hits, not new executions.
  EXPECT_EQ(client.stats().model_executions, 2u);
}

TEST_F(ClientTest, ResultCacheCapacityBounded) {
  ClientConfig config;
  config.result_cache_capacity = 8;
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  ClientInputs inputs = KnownInputs();
  for (int hour = 0; hour < 24; ++hour) {
    inputs.deploy_hour = hour;
    client.PredictSingle("VM_AVGUTIL", inputs);
  }
  // The cache was flushed at least once but predictions kept flowing.
  EXPECT_EQ(client.stats().model_executions, 24u);
}

TEST_F(ClientTest, NoStoreNoDiskFailsInitialize) {
  Client client(nullptr, ClientConfig{});
  EXPECT_FALSE(client.Initialize());
}

// The client serves through the compiled engine under Mode::kAuto. Every
// exact walk must give the same prediction for the client's feature row
// (scalar and AVX2 are bit-identical), and PredictMany's batched walk must
// agree with PredictSingle.
TEST_F(ClientTest, EngineModeServesPredictionsInEveryMode) {
  using Mode = rc::ml::ExecEngine::Mode;
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  ClientInputs inputs = KnownInputs();
  Prediction p = client.PredictSingle("VM_P95UTIL", inputs);
  ASSERT_TRUE(p.valid);
  EXPECT_GT(p.score, 0.0);
  EXPECT_LE(p.score, 1.0);

  const ModelSpec& spec = trained_->specs.at("VM_P95UTIL");
  const rc::ml::Classifier& model = *trained_->models.at("VM_P95UTIL");
  ASSERT_NE(model.engine(), nullptr);
  Featurizer featurizer(spec.metric, spec.encoding);
  std::vector<double> row(featurizer.num_features());
  featurizer.EncodeTo(inputs, trained_->feature_data.at(inputs.subscription_id),
                      row);
  std::vector<double> proba(static_cast<size_t>(model.num_classes()));
  for (Mode mode : {Mode::kAuto, Mode::kScalar, Mode::kAvx2}) {
    model.engine()->PredictBatch(row.data(), 1, row.size(), proba.data(), mode);
    const auto best = std::max_element(proba.begin(), proba.end());  // first max
    EXPECT_EQ(best - proba.begin(), p.bucket) << rc::ml::ExecEngine::ModeName(mode);
    EXPECT_EQ(*best, p.score) << rc::ml::ExecEngine::ModeName(mode);
  }

  std::vector<ClientInputs> batch(5, inputs);
  auto many = client.PredictMany("VM_P95UTIL", batch);
  ASSERT_EQ(many.size(), batch.size());
  for (const Prediction& m : many) {
    ASSERT_TRUE(m.valid);
    EXPECT_EQ(m.bucket, p.bucket);
    EXPECT_EQ(m.score, p.score);
  }
}

TEST_F(ClientTest, ModelBytesGaugeExportedPerModel) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  auto snapshot = client.metrics().Collect();
  size_t series = 0, f64_series = 0;
  for (const auto& g : snapshot.gauges) {
    if (g.info.name != "rc_client_model_bytes") continue;
    ++series;
    EXPECT_GT(g.value, 0.0) << g.info.labels;
    EXPECT_NE(g.info.labels.find("model="), std::string::npos) << g.info.labels;
    if (g.info.labels.find("pool=\"f64\"") != std::string::npos) ++f64_series;
  }
  // Six published models, each with a compiled engine and one f64 series.
  EXPECT_EQ(f64_series, 6u);
  EXPECT_EQ(series, f64_series);
}

}  // namespace
}  // namespace rc::core
