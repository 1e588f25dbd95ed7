// Full-system integration: generate a workload, run the offline pipeline,
// publish to the store, serve predictions through the client library, and
// drive the oversubscribing scheduler with them — the complete Figure 9
// loop plus the Section 5 case study.
#include <gtest/gtest.h>

#include "src/core/client.h"
#include "src/core/evaluation.h"
#include "src/core/offline_pipeline.h"
#include "src/sched/simulator.h"
#include "src/store/kv_store.h"
#include "src/trace/workload_model.h"

namespace rc {
namespace {

using core::Client;
using core::ClientConfig;
using core::ClientInputs;
using core::InputsFromVm;
using core::OfflinePipeline;
using core::PipelineConfig;
using core::Prediction;
using core::TrainedModels;
using trace::Trace;
using trace::WorkloadConfig;
using trace::WorkloadModel;

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.target_vm_count = 20000;
    config.num_subscriptions = 800;
    config.duration = 90 * kDay;
    config.seed = 31337;
    trace_ = new Trace(WorkloadModel(config).Generate());

    PipelineConfig pipeline_config;
    pipeline_config.train_begin = 0;
    pipeline_config.train_end = 60 * kDay;
    pipeline_config.rf.num_trees = 16;
    pipeline_config.gbt.num_rounds = 20;
    OfflinePipeline pipeline(pipeline_config);
    trained_ = new TrainedModels(pipeline.Run(*trace_));

    store_ = new store::KvStore();
    OfflinePipeline::Publish(*trained_, *store_);
  }

  static const Trace* trace_;
  static const TrainedModels* trained_;
  static store::KvStore* store_;
};

const Trace* EndToEndTest::trace_ = nullptr;
const TrainedModels* EndToEndTest::trained_ = nullptr;
store::KvStore* EndToEndTest::store_ = nullptr;

TEST_F(EndToEndTest, PublishedArtifactsComplete) {
  EXPECT_EQ(store_->ListKeys("model/").size(), 6u);
  EXPECT_EQ(store_->ListKeys("spec/").size(), 6u);
  EXPECT_EQ(store_->ListKeys("features/").size(), trained_->feature_data.size());
  EXPECT_GT(trained_->feature_data.size(), 100u);
}

TEST_F(EndToEndTest, ClientPredictionsMatchDirectModelExecution) {
  Client client(store_, ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  static const trace::VmSizeCatalog catalog;
  int compared = 0;
  for (const auto* vm : trace_->VmsCreatedIn(60 * kDay, 61 * kDay)) {
    if (!trained_->feature_data.contains(vm->subscription_id)) continue;
    ClientInputs inputs = InputsFromVm(*vm, catalog);
    Prediction via_client = client.PredictSingle("VM_P95UTIL", inputs);
    ASSERT_TRUE(via_client.valid);
    // Direct execution with the same features as the client sees them —
    // feature data reaches the client through its (float-precision)
    // serialized form, so round-trip before encoding.
    core::Featurizer featurizer(Metric::kP95Cpu,
                                OfflinePipeline::EncodingFor(Metric::kP95Cpu));
    auto features = core::SubscriptionFeatures::Deserialize(
        trained_->feature_data.at(vm->subscription_id).Serialize());
    const rc::ml::Classifier& model = *trained_->models.at("VM_P95UTIL");
    std::vector<double> row(featurizer.num_features());
    featurizer.EncodeTo(inputs, features, row);
    std::vector<double> proba(static_cast<size_t>(model.num_classes()));
    model.PredictBatch(row.data(), 1, row.size(), proba.data());
    auto direct = rc::ml::Argmax(proba);
    ASSERT_EQ(via_client.bucket, direct.label);
    ASSERT_NEAR(via_client.score, direct.score, 1e-12);
    if (++compared >= 50) break;
  }
  EXPECT_GE(compared, 10);
}

TEST_F(EndToEndTest, HeldOutAccuracyInPaperBand) {
  // Table 4 reports 79-90% accuracy; on a trace this small we accept a
  // slightly wider band but the models must be clearly predictive.
  for (Metric m : {Metric::kAvgCpu, Metric::kP95Cpu, Metric::kLifetime}) {
    auto examples =
        OfflinePipeline::BuildExamples(*trace_, m, 60 * kDay, 90 * kDay, true);
    ASSERT_GT(examples.size(), 500u);
    core::Featurizer featurizer(m, OfflinePipeline::EncodingFor(m));
    auto quality = core::EvaluateModel(*trained_->models.at(MetricModelName(m)),
                                       featurizer, examples);
    EXPECT_GT(quality.accuracy, 0.65) << MetricName(m);
    EXPECT_LE(quality.accuracy, 1.0) << MetricName(m);
    // Confidence filtering must not reduce precision.
    EXPECT_GE(quality.p_theta, quality.accuracy - 0.02) << MetricName(m);
  }
}

TEST_F(EndToEndTest, SchedulerConsumesClientPredictions) {
  Client client(store_, ClientConfig{});
  ASSERT_TRUE(client.Initialize());
  static const trace::VmSizeCatalog catalog;

  sched::SimConfig sim_config;
  sim_config.cluster = sched::ClusterConfig{96, 16, 112.0};
  sim_config.horizon = 14 * kDay;

  sched::Cluster cluster(sim_config.cluster);
  sched::PolicyConfig policy_config;
  policy_config.kind = sched::PolicyKind::kRcInformedSoft;
  int64_t predictions = 0, served = 0;
  sched::SchedulingPolicy policy(
      policy_config, &cluster,
      [&](const sched::VmRequest& vm) {
        ++predictions;
        Prediction p = client.PredictSingle("VM_P95UTIL", InputsFromVm(*vm.source, catalog));
        if (p.valid) ++served;
        return p;
      });

  // Schedule the tail month of the trace against the trained models.
  std::vector<sched::VmRequest> requests;
  for (auto& req : sched::RequestsFromTrace(*trace_, 74 * kDay)) {
    if (req.arrival >= 60 * kDay) {
      req.arrival -= 60 * kDay;
      req.departure -= 60 * kDay;
      requests.push_back(req);
    }
  }
  ASSERT_GT(requests.size(), 1000u);
  sched::ClusterSimulator sim(sim_config);
  auto result = sim.Run(std::move(requests), policy);

  // Non-production VMs triggered prediction requests, and most were served
  // from the trained feature data.
  EXPECT_GT(predictions, 100);
  EXPECT_GT(static_cast<double>(served) / static_cast<double>(predictions), 0.5);
  // The cluster is sized for the load; a burst-driven failure tail is
  // acceptable but must stay small.
  EXPECT_LT(result.failure_rate(), 0.02);
  // Result-cache effectiveness (paper Section 6.1: entries are reused many
  // times per model execution).
  auto stats = client.stats();
  EXPECT_GT(stats.result_hits, 0u);
}

TEST_F(EndToEndTest, FeatureImportanceIsHistoryDominated) {
  // Paper Section 6.1: "the most important attributes are the percentage of
  // VMs classified into each bucket to date in the subscription".
  auto importance = trained_->models.at("VM_AVGUTIL")->FeatureImportance();
  core::Featurizer featurizer(Metric::kAvgCpu,
                              OfflinePipeline::EncodingFor(Metric::kAvgCpu));
  ASSERT_EQ(importance.size(), featurizer.num_features());
  double history = 0.0, total = 0.0;
  for (size_t i = 0; i < importance.size(); ++i) {
    total += importance[i];
    const std::string& name = featurizer.feature_names()[i];
    if (name.rfind("hist_", 0) == 0 || name.rfind("mean_", 0) == 0) {
      history += importance[i];
    }
  }
  ASSERT_GT(total, 0.0);
  EXPECT_GT(history / total, 0.5);
}

}  // namespace
}  // namespace rc
