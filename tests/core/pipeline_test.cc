#include "src/core/offline_pipeline.h"

#include <algorithm>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/core/model_spec.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

using rc::trace::Trace;
using rc::trace::WorkloadConfig;
using rc::trace::WorkloadModel;

const Trace& SharedTrace() {
  static const Trace* trace = [] {
    WorkloadConfig config;
    config.target_vm_count = 12000;
    config.num_subscriptions = 600;
    config.seed = 5150;
    return new Trace(WorkloadModel(config).Generate());
  }();
  return *trace;
}

PipelineConfig FastConfig() {
  PipelineConfig config;
  config.rf.num_trees = 20;
  config.rf.tree.max_depth = 12;
  config.gbt.num_rounds = 20;
  return config;
}

// Receives the stage-duration instruments of SharedModels()'s one Run.
rc::obs::MetricsRegistry& SharedRunMetrics() {
  static auto* registry = new rc::obs::MetricsRegistry();
  return *registry;
}

const TrainedModels& SharedModels() {
  static const TrainedModels* models = [] {
    PipelineConfig config = FastConfig();
    config.metrics = &SharedRunMetrics();
    OfflinePipeline pipeline(config);
    return new TrainedModels(pipeline.Run(SharedTrace()));
  }();
  return *models;
}

TEST(ModelSpecTest, SerializationRoundTrip) {
  ModelSpec spec;
  spec.name = "VM_P95UTIL";
  spec.metric = Metric::kP95Cpu;
  spec.encoding = FeatureEncoding::kExpanded;
  spec.model_family = "random_forest";
  spec.num_features = 127;
  spec.version = 9;
  ModelSpec restored = ModelSpec::Deserialize(spec.Serialize());
  EXPECT_EQ(restored.name, spec.name);
  EXPECT_EQ(restored.metric, spec.metric);
  EXPECT_EQ(restored.encoding, spec.encoding);
  EXPECT_EQ(restored.model_family, spec.model_family);
  EXPECT_EQ(restored.num_features, 127u);
  EXPECT_EQ(restored.version, 9u);
}

TEST(ModelSpecTest, KeyHelpers) {
  EXPECT_EQ(SpecKey("M"), "spec/M");
  EXPECT_EQ(ModelKey("M"), "model/M");
  EXPECT_EQ(FeatureKey(12), "features/12");
  uint64_t id = 0;
  EXPECT_TRUE(ParseFeatureKey("features/987", id));
  EXPECT_EQ(id, 987u);
  EXPECT_FALSE(ParseFeatureKey("model/987", id));
  EXPECT_FALSE(ParseFeatureKey("features/abc", id));
  EXPECT_FALSE(ParseFeatureKey("features/12x", id));
}

TEST(PipelineTest, TrainsAllSixModels) {
  const TrainedModels& trained = SharedModels();
  EXPECT_EQ(trained.models.size(), 6u);
  EXPECT_EQ(trained.specs.size(), 6u);
  for (Metric m : kAllMetrics) {
    std::string name = MetricModelName(m);
    ASSERT_TRUE(trained.models.contains(name)) << name;
    const ModelSpec& spec = trained.specs.at(name);
    EXPECT_EQ(spec.metric, m);
    EXPECT_EQ(spec.encoding, OfflinePipeline::EncodingFor(m));
    const auto& model = trained.models.at(name);
    EXPECT_EQ(model->num_classes(), NumBuckets(m));
    EXPECT_EQ(static_cast<uint32_t>(model->num_features()), spec.num_features);
    // Table 1: Random Forest for utilization, boosted trees for the rest.
    if (OfflinePipeline::UsesRandomForest(m)) {
      EXPECT_STREQ(model->type_name(), "random_forest");
    } else {
      EXPECT_STREQ(model->type_name(), "gbt");
    }
  }
  EXPECT_FALSE(trained.feature_data.empty());
}

TEST(PipelineTest, RunAttributesEveryStage) {
  SharedModels();
  auto count = [](rc::obs::Labels labels) {
    return SharedRunMetrics()
        .GetHistogram("rc_pipeline_stage_duration_us", std::move(labels))
        .TakeSnapshot()
        .count;
  };
  // The observation stream is built once and shared by the six metrics'
  // example builds and the snapshot.
  EXPECT_EQ(count({{"stage", "observations"}}), 1u);
  EXPECT_EQ(count({{"stage", "build_examples"}}), 6u);
  // The train stage has one series per model, so the dominant fit shows.
  uint64_t fits = 0;
  for (Metric m : kAllMetrics) {
    const uint64_t n = count({{"stage", "train"}, {"model", MetricModelName(m)}});
    EXPECT_EQ(n, 1u) << MetricModelName(m);
    fits += n;
  }
  EXPECT_EQ(fits, 6u);
  EXPECT_EQ(count({{"stage", "feature_snapshot"}}), 1u);
}

// Run fits one model at a time, and each boosted fit runs its class trees
// on several threads. Each model must serialize to the same bytes as a fit
// of its own, on the same dataset and seed, outside the pipeline.
TEST(PipelineTest, BoostedModelsMatchStandaloneFits) {
  const TrainedModels& trained = SharedModels();
  const PipelineConfig config = FastConfig();
  for (Metric m : kAllMetrics) {
    if (OfflinePipeline::UsesRandomForest(m)) continue;
    SCOPED_TRACE(MetricModelName(m));
    Featurizer featurizer(m, OfflinePipeline::EncodingFor(m));
    rc::ml::Dataset data = OfflinePipeline::ToDataset(
        OfflinePipeline::BuildExamples(SharedTrace(), m, config.train_begin, config.train_end,
                                       /*fft_labels=*/true),
        featurizer);
    std::vector<double> zeros(featurizer.num_features(), 0.0);
    for (int c = data.NumClasses(); c < NumBuckets(m); ++c) data.AddRow(zeros, c);
    rc::ml::GbtConfig gbt = config.gbt;
    gbt.seed = OfflinePipeline::kSeed + static_cast<uint64_t>(m);
    if (m == Metric::kClass) gbt.class_weights = {1.0, 25.0};
    EXPECT_EQ(rc::ml::GradientBoostedTrees::Fit(data, gbt).SerializeTagged(),
              trained.models.at(MetricModelName(m))->SerializeTagged());
  }
}

TEST(PipelineTest, ExamplesChronologicalAndWindowed) {
  auto examples = OfflinePipeline::BuildExamples(SharedTrace(), Metric::kAvgCpu,
                                                 10 * kDay, 20 * kDay, false);
  ASSERT_FALSE(examples.empty());
  auto in_window = SharedTrace().VmsCreatedIn(10 * kDay, 20 * kDay);
  EXPECT_EQ(examples.size(), in_window.size());
}

TEST(PipelineTest, HistoryGrowsOverTime) {
  // A late window must see strictly more accumulated history than an early
  // one for the same (high-volume) subscription.
  auto early = OfflinePipeline::BuildExamples(SharedTrace(), Metric::kAvgCpu, 0,
                                              5 * kDay, false);
  auto late = OfflinePipeline::BuildExamples(SharedTrace(), Metric::kAvgCpu, 60 * kDay,
                                             65 * kDay, false);
  ASSERT_FALSE(early.empty());
  ASSERT_FALSE(late.empty());
  double early_hist = 0, late_hist = 0;
  for (const auto& e : early) early_hist += static_cast<double>(e.history.vm_count);
  for (const auto& e : late) late_hist += static_cast<double>(e.history.vm_count);
  EXPECT_GT(late_hist / static_cast<double>(late.size()),
            early_hist / static_cast<double>(early.size()));
}

TEST(PipelineTest, NoFutureLeakageInHistory) {
  // At any example's emission, the history can only contain VMs whose
  // observation time predates the emission; in particular a subscription's
  // very first VM sees an empty history.
  auto examples = OfflinePipeline::BuildExamples(SharedTrace(), Metric::kAvgCpu, 0,
                                                 30 * kDay, false);
  std::set<uint64_t> seen_subs;
  int first_vm_checked = 0;
  for (const auto& e : examples) {
    if (seen_subs.insert(e.inputs.subscription_id).second) {
      // First example of this subscription in the trace.
      const auto& vm_indices =
          SharedTrace().VmsOfSubscription(e.inputs.subscription_id);
      // Only check subscriptions whose first VM is this one (not resident
      // services created before window start).
      if (!vm_indices.empty() &&
          SharedTrace().vms()[vm_indices[0]].created >= 0 && e.history.vm_count == 0) {
        ++first_vm_checked;
      }
    }
  }
  EXPECT_GT(first_vm_checked, 10);
}

TEST(PipelineTest, LifetimeExamplesOnlyWhenLabelKnown) {
  // VMs created at the very end of the window whose lifetime cannot be
  // established (still running, < 24h old at window end) must be skipped.
  SimTime window = SharedTrace().observation_window();
  auto examples = OfflinePipeline::BuildExamples(SharedTrace(), Metric::kLifetime,
                                                 window - 12 * kHour, window, false);
  for (const auto& e : examples) {
    (void)e;
  }
  auto all_late = SharedTrace().VmsCreatedIn(window - 12 * kHour, window);
  // Some late VMs are excluded (those still running with < 24h of age).
  size_t undeterminable = 0;
  for (const auto* vm : all_late) {
    if (vm->deleted > window && (window - vm->created) <= 24 * kHour) ++undeterminable;
  }
  EXPECT_EQ(examples.size() + undeterminable, all_late.size());
}

TEST(PipelineTest, DeploymentExamplesOnePerGroup) {
  auto examples = OfflinePipeline::BuildExamples(SharedTrace(), Metric::kDeployVms, 0,
                                                 SharedTrace().observation_window(),
                                                 false);
  // One example per (subscription, region, day) group.
  std::set<std::tuple<uint64_t, int, int64_t>> groups;
  for (const auto& vm : SharedTrace().vms()) {
    groups.insert({vm.subscription_id, vm.region, vm.created / kDay});
  }
  EXPECT_EQ(examples.size(), groups.size());
}

TEST(PipelineTest, FeatureSnapshotMonotone) {
  auto early = OfflinePipeline::BuildFeatureSnapshot(SharedTrace(), 10 * kDay, false);
  auto late = OfflinePipeline::BuildFeatureSnapshot(SharedTrace(), 60 * kDay, false);
  EXPECT_GE(late.size(), early.size());
  int64_t early_total = 0, late_total = 0;
  for (const auto& [id, f] : early) early_total += f.vm_count;
  for (const auto& [id, f] : late) late_total += f.vm_count;
  EXPECT_GT(late_total, early_total);
}

TEST(PipelineTest, ModelsBeatPriorBaseline) {
  // Core claim: learned models beat always-predict-the-majority-bucket on
  // the held-out month, for every metric.
  const TrainedModels& trained = SharedModels();
  for (Metric m : {Metric::kAvgCpu, Metric::kP95Cpu, Metric::kLifetime}) {
    auto examples = OfflinePipeline::BuildExamples(SharedTrace(), m, 60 * kDay,
                                                   90 * kDay, true);
    ASSERT_GT(examples.size(), 100u) << MetricName(m);
    Featurizer featurizer(m, OfflinePipeline::EncodingFor(m));
    auto quality =
        EvaluateModel(*trained.models.at(MetricModelName(m)), featurizer, examples);
    // Majority-bucket accuracy.
    std::array<int64_t, 4> counts{};
    for (const auto& e : examples) counts[static_cast<size_t>(e.label)]++;
    double majority = static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
                      static_cast<double>(examples.size());
    EXPECT_GT(quality.accuracy, majority + 0.02) << MetricName(m);
    // Absolute floor is modest here: this fixture is deliberately small
    // (12k VMs); the full-scale Table 4 bench lands in the paper's band.
    EXPECT_GT(quality.accuracy, 0.5) << MetricName(m);
  }
}

TEST(EvaluationTest, FormatContainsKeyFields) {
  MetricQuality q;
  q.metric = Metric::kLifetime;
  q.accuracy = 0.79;
  q.buckets.resize(4);
  q.p_theta = 0.85;
  q.r_theta = 0.80;
  std::string s = FormatMetricQuality(q);
  EXPECT_NE(s.find("Lifetime"), std::string::npos);
  EXPECT_NE(s.find("0.79"), std::string::npos);
  EXPECT_NE(s.find("P^t"), std::string::npos);
}

}  // namespace
}  // namespace rc::core
