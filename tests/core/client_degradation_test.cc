// Graceful-degradation scenarios (the acceptance bar for the fault-injection
// layer): Client::PredictSingle must never throw, crash, or silently serve
// corrupt data during store outages, injected I/O error storms, or
// corrupt-blob storms — it serves its last-good snapshot, surfaces the
// degraded window in ClientStats, and recovers when the store heals.
#include "src/core/client.h"

#include <chrono>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/faults.h"
#include "src/core/offline_pipeline.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

namespace faults = rc::faults;
using rc::store::KvStore;
using rc::trace::Trace;
using rc::trace::WorkloadConfig;
using rc::trace::WorkloadModel;

class ClientDegradationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.target_vm_count = 2000;
    config.num_subscriptions = 100;
    config.seed = 1313;
    trace_ = new Trace(WorkloadModel(config).Generate());
    PipelineConfig pipeline_config;
    pipeline_config.rf.num_trees = 4;
    pipeline_config.gbt.num_rounds = 4;
    OfflinePipeline pipeline(pipeline_config);
    trained_ = new TrainedModels(pipeline.Run(*trace_));
  }

  void SetUp() override {
    // The fault registry is process-global: never let one test's faults leak
    // into another (or into the pipeline publish in this fixture).
    faults::Registry::Global().DisarmAll();
    store_ = std::make_unique<KvStore>();
    OfflinePipeline::Publish(*trained_, *store_);
    disk_dir_ = ::testing::TempDir() + "/rc_degradation_test_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(disk_dir_);
  }

  void TearDown() override {
    faults::Registry::Global().DisarmAll();
    std::filesystem::remove_all(disk_dir_);
  }

  // A spread of inputs over known subscriptions, for comparing prediction
  // sets before/during/after a degraded window.
  std::vector<ClientInputs> KnownInputSet(size_t count) const {
    static const rc::trace::VmSizeCatalog catalog;
    std::vector<ClientInputs> inputs;
    for (const auto& vm : trace_->vms()) {
      if (trained_->feature_data.contains(vm.subscription_id)) {
        inputs.push_back(InputsFromVm(vm, catalog));
        if (inputs.size() == count) break;
      }
    }
    EXPECT_EQ(inputs.size(), count);
    return inputs;
  }

  static std::vector<Prediction> PredictAll(Client& client,
                                            const std::vector<ClientInputs>& inputs) {
    std::vector<Prediction> out;
    out.reserve(inputs.size());
    for (const auto& in : inputs) out.push_back(client.PredictSingle("VM_P95UTIL", in));
    return out;
  }

  static void ExpectSamePredictions(const std::vector<Prediction>& got,
                                    const std::vector<Prediction>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].valid) << "prediction " << i << " became no-prediction";
      EXPECT_EQ(got[i].bucket, want[i].bucket) << "prediction " << i;
      EXPECT_DOUBLE_EQ(got[i].score, want[i].score) << "prediction " << i;
    }
  }

  static const Trace* trace_;
  static const TrainedModels* trained_;
  std::unique_ptr<KvStore> store_;
  std::string disk_dir_;
};

const Trace* ClientDegradationTest::trace_ = nullptr;
const TrainedModels* ClientDegradationTest::trained_ = nullptr;

// A spec and a model that disagree must never be scored together: the
// engine would read the model's row width past the end of the row the spec's
// featurizer writes. The mismatched spec here switches the P95 forest, which
// reads the expanded encoding's row, to the much narrower compact encoding.
TEST_F(ClientDegradationTest, MismatchedSpecAndModelAreNeverScored) {
  const ModelSpec good = trained_->specs.at("VM_P95UTIL");
  ModelSpec narrow = good;
  narrow.encoding = FeatureEncoding::kCompact;
  narrow.num_features = static_cast<uint32_t>(Featurizer(narrow.metric, narrow.encoding).num_features());
  ASSERT_LT(narrow.num_features, good.num_features);
  ClientConfig config;
  config.result_cache_capacity = 0;  // every prediction scores
  const auto inputs = KnownInputSet(8);

  // Through Initialize: the store holds the mismatched pair from the start,
  // so the model has no pair to serve and answers no-prediction.
  store_->Put(SpecKey("VM_P95UTIL"), narrow.Serialize());
  {
    Client client(store_.get(), config);
    ASSERT_TRUE(client.Initialize());
    for (const Prediction& p : PredictAll(client, inputs)) EXPECT_FALSE(p.valid);
    EXPECT_EQ(client.stats().degraded_reason, DegradedReason::kSpecMismatch);
    EXPECT_TRUE(client.PredictSingle("VM_AVGUTIL", inputs[0]).valid);  // the others serve
  }

  // Through pushes: the agreeing pair serves, then a mismatched spec and a
  // mismatched model land in turn; the last agreeing pair keeps serving.
  store_->Put(SpecKey("VM_P95UTIL"), good.Serialize());
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  const auto baseline = PredictAll(client, inputs);
  for (const Prediction& p : baseline) ASSERT_TRUE(p.valid);
  EXPECT_EQ(client.stats().degraded_reason, DegradedReason::kNone);

  store_->Put(SpecKey("VM_P95UTIL"), narrow.Serialize());
  ExpectSamePredictions(PredictAll(client, inputs), baseline);
  EXPECT_EQ(client.stats().degraded_reason, DegradedReason::kSpecMismatch);
  store_->Put(SpecKey("VM_P95UTIL"), good.Serialize());
  EXPECT_EQ(client.stats().degraded_reason, DegradedReason::kNone);

  // The lifetime model reads the compact row, not the P95 spec's.
  store_->Put(ModelKey("VM_P95UTIL"), trained_->models.at("VM_LIFETIME")->SerializeTagged());
  ExpectSamePredictions(PredictAll(client, inputs), baseline);
  EXPECT_EQ(client.stats().degraded_reason, DegradedReason::kSpecMismatch);
  store_->Put(ModelKey("VM_P95UTIL"), trained_->models.at("VM_P95UTIL")->SerializeTagged());
  ExpectSamePredictions(PredictAll(client, inputs), baseline);
  EXPECT_EQ(client.stats().degraded_reason, DegradedReason::kNone);
}

// The headline scenario: a store outage followed by a corrupt-blob storm.
// The client must keep serving its last-good predictions through both, count
// and surface every rejected blob, and recover the moment clean data lands.
TEST_F(ClientDegradationTest, ServesLastGoodThroughOutageAndCorruptStorm) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  auto inputs = KnownInputSet(20);
  auto baseline = PredictAll(client, inputs);
  for (const auto& p : baseline) ASSERT_TRUE(p.valid);
  EXPECT_FALSE(client.stats().degraded());

  // Phase 1: full outage. Reload attempts fail; last-good keeps serving.
  store_->SetAvailable(false);
  client.ForceReloadCache();
  ExpectSamePredictions(PredictAll(client, inputs), baseline);
  EXPECT_EQ(client.stats().degraded_reason, DegradedReason::kStoreOutage);

  // Phase 2: the store comes back but every republished blob is corrupted in
  // flight (bit flips between CRC stamping and storage). The push listener
  // must reject every one by checksum and keep the last-good snapshot.
  store_->SetAvailable(true);
  {
    faults::FaultSpec corrupt;
    corrupt.kind = faults::FaultKind::kCorrupt;
    faults::ScopedFault storm("kv/put", corrupt);
    OfflinePipeline::Publish(*trained_, *store_);
    ExpectSamePredictions(PredictAll(client, inputs), baseline);
    auto stats = client.stats();
    EXPECT_GT(stats.corrupt_blobs, 0u);
    EXPECT_EQ(stats.degraded_reason, DegradedReason::kCorruptData);
  }

  // Phase 3: clean republish heals the degraded window.
  OfflinePipeline::Publish(*trained_, *store_);
  ExpectSamePredictions(PredictAll(client, inputs), baseline);
  EXPECT_EQ(client.stats().degraded_reason, DegradedReason::kNone);
}

TEST_F(ClientDegradationTest, TornPushesAreRejectedToo) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  auto inputs = KnownInputSet(5);
  auto baseline = PredictAll(client, inputs);

  faults::FaultSpec torn;
  torn.kind = faults::FaultKind::kTruncate;
  torn.truncate_to = 8;
  faults::ScopedFault storm("kv/put", torn);
  OfflinePipeline::Publish(*trained_, *store_);
  ExpectSamePredictions(PredictAll(client, inputs), baseline);
  EXPECT_GT(client.stats().corrupt_blobs, 0u);
}

TEST_F(ClientDegradationTest, PullModeFallsBackToDiskMirrorDuringErrorStorm) {
  // Client A (push, with a disk dir) mirrors everything to disk.
  {
    ClientConfig config;
    config.disk_cache_dir = disk_dir_;
    Client warmup(store_.get(), config);
    ASSERT_TRUE(warmup.Initialize());
  }

  // Client B (pull, same disk dir) starts cold while every store read
  // errors: fetches must retry, then fall back to the disk mirror.
  ClientConfig config;
  config.mode = CacheMode::kPull;
  config.disk_cache_dir = disk_dir_;
  config.store_max_retries = 1;
  config.store_retry_backoff_us = 10;
  config.breaker_failure_threshold = 0;  // isolate retry+fallback behaviour
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());

  faults::FaultSpec err;
  err.kind = faults::FaultKind::kError;
  faults::ScopedFault storm("client/store_read", err);

  auto inputs = KnownInputSet(5);
  for (const auto& in : inputs) {
    Prediction p = client.PredictSingle("VM_P95UTIL", in);
    ASSERT_TRUE(p.valid) << "disk fallback failed";
  }
  auto stats = client.stats();
  EXPECT_GT(stats.store_errors, 0u);
  EXPECT_GT(stats.store_retries, 0u);
  EXPECT_GT(stats.disk_hits, 0u);
  EXPECT_EQ(stats.degraded_reason, DegradedReason::kStoreErrors);
}

TEST_F(ClientDegradationTest, CircuitBreakerStopsContactingTheStore) {
  ClientConfig config;
  config.mode = CacheMode::kPull;
  config.store_max_retries = 0;
  config.breaker_failure_threshold = 3;
  config.breaker_open_us = 60'000'000;  // far beyond the test's lifetime
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());

  faults::FaultSpec err;
  err.kind = faults::FaultKind::kError;
  faults::ScopedFault storm("client/store_read", err);

  auto inputs = KnownInputSet(1);
  // Drive misses until the breaker trips (every store attempt pings the
  // client/store_read fault site, so the registry's call counter tells us
  // exactly how many times the store was contacted).
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", inputs[0]).valid);
  }
  auto stats = client.stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.degraded_reason, DegradedReason::kStoreErrors);

  uint64_t attempts_at_trip = faults::Registry::Global().calls("client/store_read");
  ASSERT_GE(attempts_at_trip, 3u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", inputs[0]).valid);
  }
  // Breaker open: not a single additional store contact.
  EXPECT_EQ(faults::Registry::Global().calls("client/store_read"), attempts_at_trip);
  EXPECT_EQ(client.stats().breaker_trips, 1u);
}

TEST_F(ClientDegradationTest, BreakerHalfOpenProbeRecovers) {
  ClientConfig config;
  config.store_max_retries = 0;
  config.breaker_failure_threshold = 2;
  config.breaker_open_us = 50'000;  // 50 ms cooldown
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());
  auto inputs = KnownInputSet(5);
  auto baseline = PredictAll(client, inputs);

  {
    faults::FaultSpec err;
    err.kind = faults::FaultKind::kError;
    faults::ScopedFault storm("client/store_read", err);
    client.ForceReloadCache();  // trips the breaker partway through
  }
  auto mid = client.stats();
  EXPECT_GE(mid.breaker_trips, 1u);
  EXPECT_EQ(mid.degraded_reason, DegradedReason::kStoreErrors);
  // Still serving last-good.
  ExpectSamePredictions(PredictAll(client, inputs), baseline);

  // After the cooldown the half-open probe succeeds (faults are gone) and a
  // clean reload closes the breaker and clears the degraded flag.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  client.ForceReloadCache();
  ExpectSamePredictions(PredictAll(client, inputs), baseline);
  EXPECT_EQ(client.stats().degraded_reason, DegradedReason::kNone);
}

TEST_F(ClientDegradationTest, ReloadDeadlineCutsSlowReloadsShort) {
  ClientConfig config;
  config.reload_timeout_us = 500'000;  // 0.5 s budget for a full reload
  Client client(store_.get(), config);
  ASSERT_TRUE(client.Initialize());  // fast: no injected latency yet
  auto inputs = KnownInputSet(5);
  auto baseline = PredictAll(client, inputs);

  faults::FaultSpec slow;
  slow.kind = faults::FaultKind::kLatency;
  slow.latency_us = 200'000;  // 200 ms per store read
  faults::ScopedFault fault("kv/get", slow);

  auto start = std::chrono::steady_clock::now();
  client.ForceReloadCache();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  // Without the deadline this reload would take (keys x 200ms) >> 5 s; the
  // budget plus at most one in-flight read bounds it.
  EXPECT_LT(elapsed, 2000);
  auto stats = client.stats();
  EXPECT_EQ(stats.reload_timeouts, 1u);
  EXPECT_EQ(stats.degraded_reason, DegradedReason::kStoreErrors);
  // The partial reload never replaced good entries with nothing.
  ExpectSamePredictions(PredictAll(client, inputs), baseline);
}

TEST_F(ClientDegradationTest, ColdStartWithCorruptDiskAndDeadStoreIsSafe) {
  // Warm a disk mirror, then start a fresh client during an outage while
  // every disk read returns corrupted frames: the client must come up empty
  // (no-prediction) rather than crash or decode garbage.
  {
    ClientConfig config;
    config.disk_cache_dir = disk_dir_;
    Client warmup(store_.get(), config);
    ASSERT_TRUE(warmup.Initialize());
  }
  store_->SetAvailable(false);

  faults::FaultSpec corrupt;
  corrupt.kind = faults::FaultKind::kCorrupt;
  faults::ScopedFault rot("disk/read", corrupt);

  ClientConfig config;
  config.disk_cache_dir = disk_dir_;
  Client client(store_.get(), config);
  EXPECT_TRUE(client.Initialize());  // usable, just empty
  auto inputs = KnownInputSet(3);
  for (const auto& in : inputs) {
    EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", in).valid);
  }
  EXPECT_GT(client.stats().no_predictions, 0u);
}

}  // namespace
}  // namespace rc::core
