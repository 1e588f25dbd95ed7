#include "src/core/featurizer.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

ClientInputs SampleInputs() {
  ClientInputs in;
  in.subscription_id = 9;
  in.vm_type = 1;
  in.guest_os = 1;
  in.role = 2;
  in.cores = 4;
  in.memory_gb = 14.0;
  in.size_index = 7;
  in.region = 3;
  in.deploy_hour = 15;
  in.deploy_dow = 2;
  in.service_id = 5;
  return in;
}

std::vector<double> Encode(const Featurizer& f, const ClientInputs& inputs,
                           const SubscriptionFeatures& history) {
  std::vector<double> row(f.num_features());
  f.EncodeTo(inputs, history, row);
  return row;
}

TEST(FeaturizerTest, ExpandedFeatureCountInPaperBallpark) {
  // Table 1 reports 127 features for the Random Forest utilization models;
  // the expanded encoding should land in that neighbourhood.
  Featurizer f(Metric::kAvgCpu, FeatureEncoding::kExpanded);
  EXPECT_GE(f.num_features(), 100u);
  EXPECT_LE(f.num_features(), 150u);
  EXPECT_EQ(f.feature_names().size(), f.num_features());
}

TEST(FeaturizerTest, CompactFeatureCountsInPaperBallpark) {
  // Table 1: 24 features for the deployment models, 33-34 for lifetime and
  // class.
  EXPECT_NEAR(Featurizer(Metric::kDeployVms, FeatureEncoding::kCompact).num_features(),
              24.0, 8.0);
  EXPECT_NEAR(Featurizer(Metric::kLifetime, FeatureEncoding::kCompact).num_features(),
              33.0, 10.0);
  EXPECT_NEAR(Featurizer(Metric::kClass, FeatureEncoding::kCompact).num_features(),
              34.0, 10.0);
}

TEST(FeaturizerTest, NamesUniqueWithinEncoding) {
  for (Metric m : kAllMetrics) {
    for (FeatureEncoding enc : {FeatureEncoding::kExpanded, FeatureEncoding::kCompact}) {
      Featurizer f(m, enc);
      std::set<std::string> names(f.feature_names().begin(), f.feature_names().end());
      EXPECT_EQ(names.size(), f.num_features());
    }
  }
}

TEST(FeaturizerTest, OneHotBlocksAreOneHot) {
  Featurizer f(Metric::kP95Cpu, FeatureEncoding::kExpanded);
  SubscriptionFeatures history;
  auto row = Encode(f, SampleInputs(), history);
  ASSERT_EQ(row.size(), f.num_features());
  // Every one-hot block sums to exactly 1; block boundaries are encoded in
  // the feature names (prefix before the final underscore).
  std::map<std::string, double> block_sums;
  for (size_t i = 0; i < row.size(); ++i) {
    const std::string& name = f.feature_names()[i];
    size_t us = name.rfind('_');
    if (us == std::string::npos) continue;
    std::string prefix = name.substr(0, us);
    if (prefix == "vm_type" || prefix == "os" || prefix == "role" || prefix == "size" ||
        prefix == "region" || prefix == "service" || prefix == "hour" || prefix == "dow") {
      block_sums[prefix] += row[i];
      EXPECT_TRUE(row[i] == 0.0 || row[i] == 1.0) << name;
    }
  }
  for (const auto& [prefix, sum] : block_sums) {
    EXPECT_DOUBLE_EQ(sum, 1.0) << prefix;
  }
}

TEST(FeaturizerTest, GeneratedRegionsEncodeOneHot) {
  // The generator and the featurizer share rc::trace::kNumRegions, so every
  // region a generated VM carries lands on exactly one region_* column.
  rc::trace::WorkloadConfig config;
  config.target_vm_count = 3000;
  config.num_subscriptions = 200;
  rc::trace::WorkloadModel model(config);
  const rc::trace::Trace trace = model.Generate();
  ASSERT_GT(trace.vm_count(), 0u);
  Featurizer f(Metric::kAvgCpu, FeatureEncoding::kExpanded);
  std::vector<size_t> region_columns;
  for (size_t i = 0; i < f.num_features(); ++i) {
    if (f.feature_names()[i].starts_with("region_")) region_columns.push_back(i);
  }
  ASSERT_EQ(region_columns.size(), static_cast<size_t>(rc::trace::kNumRegions));
  SubscriptionFeatures history;
  std::vector<double> row(f.num_features());
  std::set<int> regions_seen;
  for (const auto& vm : trace.vms()) {
    f.EncodeTo(InputsFromVm(vm, model.catalog()), history, row);
    int bits = 0;
    for (size_t col : region_columns) bits += row[col] == 1.0 ? 1 : 0;
    ASSERT_EQ(bits, 1) << "vm " << vm.vm_id << " region " << vm.region;
    regions_seen.insert(vm.region);
  }
  EXPECT_EQ(regions_seen.size(), static_cast<size_t>(rc::trace::kNumRegions));
}

TEST(FeaturizerTest, HistoryFlowsIntoFeatures) {
  Featurizer f(Metric::kAvgCpu, FeatureEncoding::kCompact);
  SubscriptionFeatures empty;
  SubscriptionFeatures history;
  history.vm_count = 10;
  history.bucket_frac[static_cast<size_t>(Metric::kAvgCpu)][2] = 0.7;
  history.mean_avg_cpu = 0.55;
  auto row_empty = Encode(f, SampleInputs(), empty);
  auto row_hist = Encode(f, SampleInputs(), history);
  EXPECT_NE(row_empty, row_hist);
  // The hist_avg_b2 feature must carry the 0.7.
  for (size_t i = 0; i < f.num_features(); ++i) {
    if (f.feature_names()[i] == "hist_avg_b2") {
      EXPECT_DOUBLE_EQ(row_hist[i], 0.7);
      EXPECT_DOUBLE_EQ(row_empty[i], 0.0);
    }
  }
}

TEST(FeaturizerTest, EncodeToValidatesSize) {
  Featurizer f(Metric::kClass, FeatureEncoding::kCompact);
  SubscriptionFeatures history;
  std::vector<double> wrong(f.num_features() + 1);
  EXPECT_THROW(f.EncodeTo(SampleInputs(), history, wrong), std::invalid_argument);
}

TEST(FeaturizerTest, DeterministicEncoding) {
  Featurizer f(Metric::kLifetime, FeatureEncoding::kCompact);
  SubscriptionFeatures history;
  history.vm_count = 3;
  EXPECT_EQ(Encode(f, SampleInputs(), history), Encode(f, SampleInputs(), history));
}

TEST(InputsFromVmTest, MapsAllFields) {
  rc::trace::VmSizeCatalog catalog;
  rc::trace::VmRecord vm;
  vm.subscription_id = 77;
  vm.vm_type = rc::trace::VmType::kPaas;
  vm.guest_os = rc::trace::GuestOs::kWindows;
  vm.role = rc::trace::Role::kWorkerRole;
  vm.service = 4;  // svc-3
  vm.cores = 2;
  vm.memory_gb = 3.5;  // A2
  vm.region = 4;
  vm.created = 2 * kDay + 9 * kHour + 30 * kMinute;

  ClientInputs in = InputsFromVm(vm, catalog);
  EXPECT_EQ(in.subscription_id, 77u);
  EXPECT_EQ(in.vm_type, 1);
  EXPECT_EQ(in.guest_os, 1);
  EXPECT_EQ(in.role, 2);
  EXPECT_EQ(in.service_id, 4);
  EXPECT_EQ(in.cores, 2);
  EXPECT_EQ(in.size_index, catalog.IndexOf("A2"));
  EXPECT_EQ(in.region, 4);
  EXPECT_EQ(in.deploy_hour, 9);
  EXPECT_EQ(in.deploy_dow, 2);
}

TEST(ClientInputsTest, CacheKeySensitivity) {
  ClientInputs a = SampleInputs();
  uint64_t base = a.CacheKey("VM_P95UTIL");
  EXPECT_EQ(base, a.CacheKey("VM_P95UTIL"));          // stable
  EXPECT_NE(base, a.CacheKey("VM_AVGUTIL"));          // model name matters
  ClientInputs b = a;
  b.subscription_id += 1;
  EXPECT_NE(base, b.CacheKey("VM_P95UTIL"));
  ClientInputs c = a;
  c.deploy_hour += 1;
  EXPECT_NE(base, c.CacheKey("VM_P95UTIL"));
}

TEST(PredictionTest, BucketValuePolicies) {
  EXPECT_DOUBLE_EQ(UtilizationBucketValue(1, BucketValuePolicy::kLow), 0.25);
  EXPECT_DOUBLE_EQ(UtilizationBucketValue(1, BucketValuePolicy::kMid), 0.375);
  EXPECT_DOUBLE_EQ(UtilizationBucketValue(1, BucketValuePolicy::kHigh), 0.5);
  EXPECT_DOUBLE_EQ(UtilizationBucketValue(3, BucketValuePolicy::kHigh), 1.0);
}

TEST(PredictionTest, NoneAndOf) {
  Prediction none = Prediction::None();
  EXPECT_FALSE(none.valid);
  Prediction p = Prediction::Of(2, 0.8);
  EXPECT_TRUE(p.valid);
  EXPECT_EQ(p.bucket, 2);
  EXPECT_DOUBLE_EQ(p.score, 0.8);
}

}  // namespace
}  // namespace rc::core
