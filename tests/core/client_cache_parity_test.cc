// Parity oracle for the client's result cache: a client with the
// admission-controlled cache must return bit-identical Predictions (valid
// and no-prediction alike) to a cache-off client over the same store state,
// generation stamps must keep stale results from being served across pushes
// (a feature push stales only its subscription, a model push everything),
// and the warm hit path must perform zero shard-mutex acquisitions
// (rc::cache::ShardLockAcquisitions hook).
#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/sharded_cache.h"
#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

using rc::store::KvStore;
using rc::trace::Trace;
using rc::trace::WorkloadConfig;
using rc::trace::WorkloadModel;

bool BitIdentical(const Prediction& a, const Prediction& b) {
  return a.valid == b.valid && a.bucket == b.bucket &&
         std::memcmp(&a.score, &b.score, sizeof(double)) == 0;
}

class ClientCacheParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.target_vm_count = 4000;
    config.num_subscriptions = 200;
    config.seed = 1234;
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
  }

  // Inputs for subscriptions present in the published feature data.
  std::vector<ClientInputs> KnownInputSet(size_t limit) const {
    static const rc::trace::VmSizeCatalog catalog;
    std::vector<ClientInputs> inputs;
    for (const auto& vm : trace_->vms()) {
      if (inputs.size() >= limit) break;
      if (trained_->feature_data.contains(vm.subscription_id)) {
        inputs.push_back(InputsFromVm(vm, catalog));
      }
    }
    EXPECT_FALSE(inputs.empty());
    return inputs;
  }

  // Inputs for subscriptions absent from the published feature data: known
  // inputs with their subscription replaced by a fresh id.
  std::vector<ClientInputs> UnknownInputSet(size_t limit) const {
    std::vector<ClientInputs> inputs = KnownInputSet(limit);
    for (size_t i = 0; i < inputs.size(); ++i) {
      inputs[i].subscription_id = 0xF00D'0000'0000ull + i;
      EXPECT_FALSE(trained_->feature_data.contains(inputs[i].subscription_id));
    }
    return inputs;
  }

  // A feature record for `subscription_id`, borrowed from a known one.
  std::vector<uint8_t> FeatureRecord(uint64_t subscription_id) const {
    SubscriptionFeatures features = trained_->feature_data.begin()->second;
    features.subscription_id = subscription_id;
    return features.Serialize();
  }

  uint64_t Publishes(const Client& client) const {
    return client.metrics().GetCounter("rc_client_state_publishes").Value();
  }

  static const Trace* trace_;
  static const TrainedModels* trained_;
  std::unique_ptr<KvStore> store_;
};

const Trace* ClientCacheParityTest::trace_ = nullptr;
const TrainedModels* ClientCacheParityTest::trained_ = nullptr;

TEST_F(ClientCacheParityTest, CachedResultsBitIdenticalToCacheOff) {
  ClientConfig cached_config;  // default: W-TinyLFU cache on
  Client cached(store_.get(), cached_config);
  ASSERT_TRUE(cached.Initialize());

  ClientConfig uncached_config;
  uncached_config.result_cache_capacity = 0;  // every call executes
  Client uncached(store_.get(), uncached_config);
  ASSERT_TRUE(uncached.Initialize());

  const std::vector<ClientInputs> inputs = KnownInputSet(200);
  const std::vector<std::string> models = {"VM_P95UTIL", "VM_AVGUTIL"};
  // Two passes: pass 0 fills the cache, pass 1 serves hits — both must be
  // bit-identical to the always-execute client.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& model : models) {
      for (const auto& in : inputs) {
        const Prediction a = cached.PredictSingle(model, in);
        const Prediction b = uncached.PredictSingle(model, in);
        ASSERT_TRUE(BitIdentical(a, b))
            << "pass " << pass << " model " << model << " valid " << a.valid
            << "/" << b.valid << " bucket " << a.bucket << "/" << b.bucket;
      }
    }
  }
  // The second pass actually exercised the cache.
  EXPECT_GT(cached.stats().result_hits, 0u);
  EXPECT_EQ(uncached.stats().result_hits, 0u);
}

TEST_F(ClientCacheParityTest, RepublishStormPreservesEpochSemantics) {
  // Readers hammer predictions while feature data republishes churn the
  // snapshot and invalidate the result cache. Afterwards, every cached
  // answer must match a cache-off client built on the final store state —
  // i.e. no pre-invalidation result survived an invalidation.
  Client cached(store_.get(), ClientConfig{});
  ASSERT_TRUE(cached.Initialize());
  const std::vector<ClientInputs> inputs = KnownInputSet(64);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        cached.PredictSingle("VM_P95UTIL", inputs[i % inputs.size()]);
        ++i;
      }
    });
  }
  // The storm: republish feature data for the subscriptions under test with
  // changing contents, so a stale cached result is actually wrong.
  for (int round = 0; round < 30; ++round) {
    for (size_t i = 0; i < 8 && i < inputs.size(); ++i) {
      SubscriptionFeatures features;
      features.subscription_id = inputs[i].subscription_id;
      features.vm_count = 1 + (round % 5);
      store_->Put(FeatureKey(features.subscription_id), features.Serialize());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  ClientConfig reference_config;
  reference_config.result_cache_capacity = 0;
  Client reference(store_.get(), reference_config);
  ASSERT_TRUE(reference.Initialize());
  for (const auto& in : inputs) {
    const Prediction a = cached.PredictSingle("VM_P95UTIL", in);
    const Prediction b = reference.PredictSingle("VM_P95UTIL", in);
    ASSERT_TRUE(BitIdentical(a, b)) << "stale result survived invalidation";
  }
}

TEST_F(ClientCacheParityTest, WarmHitPathTakesZeroShardLocks) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  const std::vector<ClientInputs> known = KnownInputSet(32);
  const std::vector<ClientInputs> unknown = UnknownInputSet(8);
  std::vector<ClientInputs> inputs = known;
  inputs.insert(inputs.end(), unknown.begin(), unknown.end());
  // Warm: every key inserted (insert takes the shard writer lock, once),
  // the unknown subscriptions' no-predictions included.
  for (const auto& in : inputs) client.PredictSingle("VM_P95UTIL", in);
  const ClientStats before = client.stats();
  const uint64_t publishes_before = Publishes(client);
  const uint64_t locks_before = rc::cache::ShardLockAcquisitions();
  for (int round = 0; round < 50; ++round) {
    for (const auto& in : inputs) client.PredictSingle("VM_P95UTIL", in);
  }
  EXPECT_EQ(rc::cache::ShardLockAcquisitions(), locks_before)
      << "a warm PredictSingle hit acquired a cache shard mutex";
  const ClientStats after = client.stats();
  EXPECT_EQ(after.result_hits, before.result_hits + 50 * inputs.size());
  EXPECT_EQ(after.result_misses, before.result_misses);
  // A cached no-prediction is still a no-prediction answer.
  EXPECT_EQ(after.no_predictions, before.no_predictions + 50 * unknown.size());
  EXPECT_EQ(Publishes(client), publishes_before);
}

TEST_F(ClientCacheParityTest, NonePredictionsBitIdenticalToCacheOff) {
  Client cached(store_.get(), ClientConfig{});
  ASSERT_TRUE(cached.Initialize());
  ClientConfig uncached_config;
  uncached_config.result_cache_capacity = 0;
  Client uncached(store_.get(), uncached_config);
  ASSERT_TRUE(uncached.Initialize());

  // Unknown subscriptions interleaved with known ones, plus a model that
  // does not exist: pass 0 fills the cache, pass 1 serves hits.
  std::vector<ClientInputs> inputs = KnownInputSet(32);
  for (const ClientInputs& in : UnknownInputSet(32)) inputs.push_back(in);
  const std::vector<std::string> models = {"VM_P95UTIL", "NOT_A_MODEL"};
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& model : models) {
      for (const auto& in : inputs) {
        ASSERT_TRUE(BitIdentical(cached.PredictSingle(model, in),
                                 uncached.PredictSingle(model, in)))
            << "pass " << pass << " model " << model;
      }
      const std::vector<Prediction> a = cached.PredictMany(model, inputs);
      const std::vector<Prediction> b = uncached.PredictMany(model, inputs);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(BitIdentical(a[i], b[i])) << "pass " << pass << " row " << i;
      }
    }
  }
  // Both clients answered the same number of no-predictions, cached or not.
  EXPECT_EQ(cached.stats().no_predictions, uncached.stats().no_predictions);
  EXPECT_GT(cached.stats().no_predictions, 0u);
}

TEST_F(ClientCacheParityTest, UnknownSubscriptionValidAfterFeaturePut) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  const ClientInputs in = UnknownInputSet(1)[0];

  EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", in).valid);
  const uint64_t hits = client.stats().result_hits;
  EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", in).valid);
  EXPECT_EQ(client.stats().result_hits, hits + 1) << "the no-prediction was not cached";

  store_->Put(FeatureKey(in.subscription_id), FeatureRecord(in.subscription_id));
  const Prediction p = client.PredictSingle("VM_P95UTIL", in);
  ASSERT_TRUE(p.valid) << "a cached no-prediction survived the feature push";

  ClientConfig reference_config;
  reference_config.result_cache_capacity = 0;
  Client reference(store_.get(), reference_config);
  ASSERT_TRUE(reference.Initialize());
  EXPECT_TRUE(BitIdentical(p, reference.PredictSingle("VM_P95UTIL", in)));
}

TEST_F(ClientCacheParityTest, FeaturePushStalesOnlyItsSubscription) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  // Distinct cache keys only, so each sweep probes every entry once.
  std::vector<ClientInputs> inputs;
  std::unordered_set<uint64_t> keys;
  for (const ClientInputs& in : KnownInputSet(200)) {
    if (keys.insert(in.CacheKey("VM_P95UTIL")).second) inputs.push_back(in);
  }
  const uint64_t pushed = inputs[0].subscription_id;
  std::vector<ClientInputs> own, others;
  for (const ClientInputs& in : inputs) {
    (in.subscription_id == pushed ? own : others).push_back(in);
  }
  ASSERT_FALSE(others.empty());
  auto predict_all = [&](const std::vector<ClientInputs>& set) {
    for (const ClientInputs& in : set) client.PredictSingle("VM_P95UTIL", in);
  };
  predict_all(inputs);  // warm

  // Re-Put subscription A's record: A's entries miss, B's stay hits.
  store_->Put(FeatureKey(pushed), store_->Get(FeatureKey(pushed))->data);
  ClientStats before = client.stats();
  predict_all(others);
  EXPECT_EQ(client.stats().result_hits - before.result_hits, others.size());
  before = client.stats();
  predict_all(own);
  EXPECT_EQ(client.stats().result_misses - before.result_misses, own.size());

  // A model push makes every entry miss.
  store_->Put(ModelKey("VM_P95UTIL"), store_->Get(ModelKey("VM_P95UTIL"))->data);
  before = client.stats();
  predict_all(inputs);
  EXPECT_EQ(client.stats().result_hits, before.result_hits);
  EXPECT_EQ(client.stats().result_misses - before.result_misses, inputs.size());
}

TEST_F(ClientCacheParityTest, PushInterleavingMatchesCacheOff) {
  // Both clients subscribe to the same store, so every push reaches both
  // before Put returns. Pushes of every kind land between prediction
  // sweeps: changed feature data for known subscriptions, first feature
  // records for unknown ones, and model/spec re-publishes.
  Client cached(store_.get(), ClientConfig{});
  ASSERT_TRUE(cached.Initialize());
  ClientConfig uncached_config;
  uncached_config.result_cache_capacity = 0;
  Client uncached(store_.get(), uncached_config);
  ASSERT_TRUE(uncached.Initialize());

  const std::vector<ClientInputs> known = KnownInputSet(24);
  const std::vector<ClientInputs> unknown = UnknownInputSet(12);
  std::vector<ClientInputs> inputs = known;
  inputs.insert(inputs.end(), unknown.begin(), unknown.end());
  for (int round = 0; round < 24; ++round) {
    switch (round % 4) {
      case 0: {
        SubscriptionFeatures features;
        features.subscription_id = known[round % known.size()].subscription_id;
        features.vm_count = 1 + round;
        store_->Put(FeatureKey(features.subscription_id), features.Serialize());
        break;
      }
      case 1: {
        const uint64_t sub = unknown[(round / 4) % unknown.size()].subscription_id;
        store_->Put(FeatureKey(sub), FeatureRecord(sub));
        break;
      }
      case 2:
        store_->Put(ModelKey("VM_P95UTIL"), store_->Get(ModelKey("VM_P95UTIL"))->data);
        break;
      case 3:
        store_->Put(SpecKey("VM_P95UTIL"), store_->Get(SpecKey("VM_P95UTIL"))->data);
        break;
    }
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (const ClientInputs& in : inputs) {
        ASSERT_TRUE(BitIdentical(cached.PredictSingle("VM_P95UTIL", in),
                                 uncached.PredictSingle("VM_P95UTIL", in)))
            << "round " << round << " sweep " << sweep;
      }
      const std::vector<Prediction> a = cached.PredictMany("VM_P95UTIL", inputs);
      const std::vector<Prediction> b = uncached.PredictMany("VM_P95UTIL", inputs);
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(BitIdentical(a[i], b[i])) << "round " << round << " row " << i;
      }
    }
  }
  EXPECT_GT(cached.stats().result_hits, 0u);
}

TEST_F(ClientCacheParityTest, UnknownSubscriptionStormPublishesNothing) {
  Client client(store_.get(), ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  const ClientInputs donor = KnownInputSet(1)[0];
  const uint64_t publishes = Publishes(client);
  const uint64_t nones = client.stats().no_predictions;
  std::vector<ClientInputs> batch(4, donor);
  for (uint64_t i = 0; i < 10'000; ++i) {
    ClientInputs in = donor;
    in.subscription_id = 0xBAD0'0000'0000ull + i;
    EXPECT_FALSE(client.PredictSingle("VM_P95UTIL", in).valid);
    for (uint64_t b = 0; b < batch.size(); ++b) {
      batch[b].subscription_id = 0xBAD1'0000'0000ull + i * batch.size() + b;
    }
    for (const Prediction& p : client.PredictMany("VM_AVGUTIL", std::span(batch))) {
      EXPECT_FALSE(p.valid);
    }
  }
  EXPECT_EQ(Publishes(client), publishes) << "a no-prediction published client state";
  EXPECT_EQ(client.stats().no_predictions, nones + 10'000 * (1 + batch.size()));
}

// PredictMany and per-row PredictSingle share one miss path, so on fresh
// clients over the same store they must agree row for row in every cache
// mode: push, push with a disk mirror, pull, and never-blocking pull. The
// batch mixes known rows, unknown subscriptions and repeated keys of both;
// an unknown model runs through the same batch. Each model is asked twice
// (cold, then warm), and both clients must count the same no-predictions.
TEST_F(ClientCacheParityTest, PredictManyMatchesSinglesInEveryCacheMode) {
  struct CacheModeCase {
    const char* name;
    CacheMode mode;
    bool disk_mirror;
    bool pull_never_blocks;
  };
  const CacheModeCase cases[] = {
      {"push", CacheMode::kPush, false, false},
      {"push+disk", CacheMode::kPush, true, false},
      {"pull", CacheMode::kPull, false, false},
      {"pull-never-blocks", CacheMode::kPull, false, true},
  };
  std::vector<ClientInputs> batch = KnownInputSet(24);
  const std::vector<ClientInputs> unknown = UnknownInputSet(2);
  batch.insert(batch.begin() + 5, unknown[0]);
  batch.push_back(unknown[1]);
  batch.push_back(batch[0]);    // repeated known key
  batch.push_back(batch[3]);    // repeated known key
  batch.push_back(unknown[0]);  // repeated unknown-subscription key
  const std::string disk_root =
      ::testing::TempDir() + "/rc_parity_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();

  for (const CacheModeCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::filesystem::remove_all(disk_root);
    auto config_for = [&](const char* side) {
      ClientConfig config;
      config.mode = c.mode;
      config.pull_never_blocks = c.pull_never_blocks;
      if (c.disk_mirror) config.disk_cache_dir = disk_root + "/" + side;
      return config;
    };
    Client many(store_.get(), config_for("many"));
    Client singles(store_.get(), config_for("singles"));
    ASSERT_TRUE(many.Initialize());
    ASSERT_TRUE(singles.Initialize());
    size_t valid = 0, none = 0;
    for (const std::string model : {"VM_P95UTIL", "NOT_A_MODEL", "VM_AVGUTIL"}) {
      for (int pass = 0; pass < 2; ++pass) {
        const std::vector<Prediction> batched = many.PredictMany(model, batch);
        ASSERT_EQ(batched.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          const Prediction single = singles.PredictSingle(model, batch[i]);
          ASSERT_TRUE(BitIdentical(batched[i], single))
              << model << " pass " << pass << " row " << i << " valid "
              << batched[i].valid << "/" << single.valid;
          (single.valid ? valid : none) += 1;
        }
        EXPECT_EQ(many.stats().no_predictions, singles.stats().no_predictions)
            << model << " pass " << pass;
      }
    }
    // The comparison covered both kinds of answer.
    EXPECT_GT(valid, 0u);
    EXPECT_GT(none, 0u);
  }
  std::filesystem::remove_all(disk_root);
}

}  // namespace
}  // namespace rc::core
