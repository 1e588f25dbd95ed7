// rc::obs integration at the client boundary: the registry-backed
// instruments must mirror ClientStats exactly, the degraded-reason gauge and
// breaker-trip counter must move through an injected outage, and a shared
// registry must keep two clients' series apart via labels.
#include "src/core/client.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/faults.h"
#include "src/core/offline_pipeline.h"
#include "src/obs/export.h"
#include "src/obs/trace_context.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

namespace faults = rc::faults;
using rc::store::KvStore;
using rc::trace::Trace;
using rc::trace::WorkloadConfig;
using rc::trace::WorkloadModel;

class ClientMetricsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.target_vm_count = 1000;
    config.num_subscriptions = 60;
    config.seed = 4242;
    trace_ = new Trace(WorkloadModel(config).Generate());
    PipelineConfig pipeline_config;
    pipeline_config.rf.num_trees = 4;
    pipeline_config.gbt.num_rounds = 4;
    OfflinePipeline pipeline(pipeline_config);
    trained_ = new TrainedModels(pipeline.Run(*trace_));
  }

  void SetUp() override {
    faults::Registry::Global().DisarmAll();
    store_ = std::make_unique<KvStore>();
    OfflinePipeline::Publish(*trained_, *store_);
  }

  void TearDown() override { faults::Registry::Global().DisarmAll(); }

  ClientInputs KnownInput() const {
    static const rc::trace::VmSizeCatalog catalog;
    for (const auto& vm : trace_->vms()) {
      if (trained_->feature_data.contains(vm.subscription_id)) {
        return InputsFromVm(vm, catalog);
      }
    }
    ADD_FAILURE() << "no VM with feature data";
    return {};
  }

  static const Trace* trace_;
  static const TrainedModels* trained_;
  std::unique_ptr<KvStore> store_;
};

const Trace* ClientMetricsTest::trace_ = nullptr;
const TrainedModels* ClientMetricsTest::trained_ = nullptr;

TEST_F(ClientMetricsTest, InstrumentsMirrorClientStats) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  ClientInputs input = KnownInput();
  // PredictSingle latency is sampled once per 64 calls per thread; a fresh
  // thread starts its count at zero, so 64 * 3 calls yield 3 samples.
  constexpr int kCalls = 64 * 3;
  int valid = 0;
  std::thread caller([&] {
    for (int i = 0; i < kCalls; ++i) valid += client.PredictSingle("VM_P95UTIL", input).valid;
  });
  caller.join();
  EXPECT_EQ(valid, kCalls);

  ClientStats stats = client.stats();
  EXPECT_EQ(stats.result_hits, static_cast<uint64_t>(kCalls - 1));
  EXPECT_EQ(stats.result_misses, 1u);

  rc::obs::MetricsRegistry& reg = client.metrics();
  EXPECT_EQ(reg.GetCounter("rc_client_result_hits").Value(), stats.result_hits);
  EXPECT_EQ(reg.GetCounter("rc_client_result_misses").Value(), stats.result_misses);
  EXPECT_EQ(reg.GetCounter("rc_client_model_executions").Value(), stats.model_executions);
  EXPECT_EQ(reg.GetCounter("rc_client_store_fetches").Value(), stats.store_fetches);
  EXPECT_EQ(reg.GetHistogram("rc_client_predict_latency_us").TakeSnapshot().count, 3u);
  // Store reads happened during Initialize and are timed unconditionally.
  EXPECT_GT(reg.GetHistogram("rc_client_store_read_latency_us").TakeSnapshot().count, 0u);
}

// rc_client_store_read_latency_us is always on: one sample per store read,
// with trace sampling off. On a healthy store every read is one TryGet, so
// the client's count equals the reads the store answered.
TEST_F(ClientMetricsTest, StoreReadLatencyTakesOneSamplePerStoreRead) {
  ASSERT_EQ(rc::obs::Tracer::Global().sample_every(), 0u);
  rc::obs::MetricsRegistry store_reg;
  KvStore::Options store_options;
  store_options.metrics = &store_reg;
  KvStore store(store_options);
  OfflinePipeline::Publish(*trained_, store);
  rc::obs::MetricsRegistry client_reg;
  ClientConfig config;
  config.metrics = &client_reg;
  Client client(&store, config);
  ASSERT_TRUE(client.Initialize());
  EXPECT_TRUE(client.PredictSingle("VM_P95UTIL", KnownInput()).valid);

  uint64_t reads = 0;
  for (const char* status : {"ok", "notfound", "failed"}) {
    reads += store_reg.GetCounter("rc_store_gets", {{"status", status}}).Value();
  }
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(client_reg.GetHistogram("rc_client_store_read_latency_us").TakeSnapshot().count,
            reads);
}

TEST_F(ClientMetricsTest, DegradedGaugeAndBreakerTripsMoveThroughAnOutage) {
  ClientConfig config;
  config.store_max_retries = 0;
  config.breaker_failure_threshold = 2;
  config.breaker_open_us = 1000;  // short cooldown so the window can heal
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  rc::obs::Gauge& degraded = client.metrics().GetGauge("rc_client_degraded_reason");
  rc::obs::Counter& trips = client.metrics().GetCounter("rc_client_breaker_trips");
  EXPECT_DOUBLE_EQ(degraded.Value(), 0.0);
  EXPECT_EQ(trips.Value(), 0u);

  // Injected store-read error storm: reload fails, breaker trips, gauge
  // reports DegradedReason::kStoreErrors (2).
  {
    faults::FaultSpec err;
    err.kind = faults::FaultKind::kError;
    faults::ScopedFault storm("client/store_read", err);
    client.ForceReloadCache();
  }
  EXPECT_DOUBLE_EQ(degraded.Value(), 2.0);
  EXPECT_GE(trips.Value(), 1u);
  EXPECT_EQ(trips.Value(), client.stats().breaker_trips);

  // Store outage: gauge moves to kStoreOutage (1).
  store_->SetAvailable(false);
  client.ForceReloadCache();
  EXPECT_DOUBLE_EQ(degraded.Value(), 1.0);

  // Heal: wait out the breaker cooldown, clean reload clears the gauge.
  store_->SetAvailable(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  client.ForceReloadCache();
  EXPECT_DOUBLE_EQ(degraded.Value(), 0.0);

  // The whole story is visible in the exposition text.
  std::string text = rc::obs::PrometheusText(client.metrics());
  EXPECT_NE(text.find("rc_client_breaker_trips"), std::string::npos);
  EXPECT_NE(text.find("rc_client_degraded_reason 0"), std::string::npos) << text;
}

TEST_F(ClientMetricsTest, SharedRegistrySplitsClientsByLabel) {
  rc::obs::MetricsRegistry shared;
  ClientConfig a_config;
  a_config.metrics = &shared;
  a_config.metric_labels = {{"client", "a"}};
  ClientConfig b_config;
  b_config.metrics = &shared;
  b_config.metric_labels = {{"client", "b"}};
  Client a(store_.get(), a_config);
  Client b(store_.get(), b_config);
  ASSERT_TRUE(a.Initialize());
  ASSERT_TRUE(b.Initialize());

  ClientInputs input = KnownInput();
  ASSERT_TRUE(a.PredictSingle("VM_P95UTIL", input).valid);

  EXPECT_EQ(shared.GetCounter("rc_client_result_misses", {{"client", "a"}}).Value(), 1u);
  EXPECT_EQ(shared.GetCounter("rc_client_result_misses", {{"client", "b"}}).Value(), 0u);
  // Per-client stats() views stay isolated despite the shared registry.
  EXPECT_EQ(a.stats().result_misses, 1u);
  EXPECT_EQ(b.stats().result_misses, 0u);
}

}  // namespace
}  // namespace rc::core
