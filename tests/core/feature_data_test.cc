#include "src/core/feature_data.h"

#include <cmath>

#include <gtest/gtest.h>

namespace rc::core {
namespace {

using rc::trace::VmRecord;
using rc::trace::WorkloadClass;

TEST(SubscriptionFeaturesTest, SerializationRoundTrip) {
  SubscriptionFeatures f;
  f.subscription_id = 42;
  f.vm_count = 17;
  f.deployment_count = 5;
  f.bucket_frac[0][1] = 0.25;
  f.bucket_frac[5][0] = 0.75;
  f.mean_avg_cpu = 0.31;
  f.mean_log_lifetime = 9.5;
  f.mean_deploy_vms = 3.5;

  auto bytes = f.Serialize();
  SubscriptionFeatures g = SubscriptionFeatures::Deserialize(bytes);
  EXPECT_EQ(g.subscription_id, 42u);
  EXPECT_EQ(g.vm_count, 17);
  EXPECT_EQ(g.deployment_count, 5);
  EXPECT_NEAR(g.bucket_frac[0][1], 0.25, 1e-6);
  EXPECT_NEAR(g.bucket_frac[5][0], 0.75, 1e-6);
  EXPECT_NEAR(g.mean_avg_cpu, 0.31, 1e-6);
  EXPECT_NEAR(g.mean_log_lifetime, 9.5, 1e-6);
  EXPECT_NEAR(g.mean_deploy_vms, 3.5, 1e-6);
}

TEST(SubscriptionFeaturesTest, RecordSizeInPaperBallpark) {
  // The paper reports ~850 bytes of feature data per subscription; our
  // compact record must be the same order of magnitude (and stable).
  SubscriptionFeatures f;
  size_t size = f.Serialize().size();
  EXPECT_GT(size, 80u);
  EXPECT_LT(size, 900u);
}

TEST(FeatureDataBuilderTest, EmptySnapshot) {
  FeatureDataBuilder builder;
  EXPECT_FALSE(builder.Has(7));
  SubscriptionFeatures f = builder.Snapshot(7);
  EXPECT_EQ(f.subscription_id, 7u);
  EXPECT_EQ(f.vm_count, 0);
}

TEST(FeatureDataBuilderTest, UtilizationFractions) {
  FeatureDataBuilder builder;
  builder.ObserveUtilization(1, 0.1, 0.3, 2);   // avg b0, p95 b1
  builder.ObserveUtilization(1, 0.1, 0.9, 2);   // avg b0, p95 b3
  builder.ObserveUtilization(1, 0.6, 0.95, 4);  // avg b2, p95 b3
  SubscriptionFeatures f = builder.Snapshot(1);
  EXPECT_EQ(f.vm_count, 3);
  auto avg = f.bucket_frac[static_cast<size_t>(Metric::kAvgCpu)];
  EXPECT_NEAR(avg[0], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(avg[2], 1.0 / 3.0, 1e-9);
  auto p95 = f.bucket_frac[static_cast<size_t>(Metric::kP95Cpu)];
  EXPECT_NEAR(p95[3], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(f.mean_avg_cpu, (0.1 + 0.1 + 0.6) / 3.0, 1e-9);
  EXPECT_NEAR(f.mean_cores, (2 + 2 + 4) / 3.0, 1e-9);
}

TEST(FeatureDataBuilderTest, LifetimeIndependentDenominator) {
  FeatureDataBuilder builder;
  // Two utilization observations but only one lifetime observation (the
  // second VM is still running).
  builder.ObserveUtilization(1, 0.1, 0.2, 1);
  builder.ObserveUtilization(1, 0.1, 0.2, 1);
  builder.ObserveLifetime(1, 30 * kMinute);
  SubscriptionFeatures f = builder.Snapshot(1);
  auto life = f.bucket_frac[static_cast<size_t>(Metric::kLifetime)];
  EXPECT_NEAR(life[1], 1.0, 1e-9);  // denominator is lifetime_observed = 1
  EXPECT_NEAR(f.mean_log_lifetime, std::log(30.0 * kMinute), 1e-9);
}

TEST(FeatureDataBuilderTest, ClassUnknownIgnored) {
  FeatureDataBuilder builder;
  builder.ObserveClass(1, WorkloadClass::kUnknown);
  EXPECT_FALSE(builder.Has(1));
  builder.ObserveClass(1, WorkloadClass::kInteractive);
  builder.ObserveClass(1, WorkloadClass::kDelayInsensitive);
  builder.ObserveClass(1, WorkloadClass::kDelayInsensitive);
  auto cls = builder.Snapshot(1).bucket_frac[static_cast<size_t>(Metric::kClass)];
  EXPECT_NEAR(cls[kClassInteractive], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(cls[kClassDelayInsensitive], 2.0 / 3.0, 1e-9);
}

TEST(FeatureDataBuilderTest, DeploymentObservations) {
  FeatureDataBuilder builder;
  builder.ObserveDeployment(1, 1, 2);      // vms b0, cores b1
  builder.ObserveDeployment(1, 50, 200);   // vms b2, cores b3
  SubscriptionFeatures f = builder.Snapshot(1);
  EXPECT_EQ(f.deployment_count, 2);
  auto dv = f.bucket_frac[static_cast<size_t>(Metric::kDeployVms)];
  EXPECT_NEAR(dv[0], 0.5, 1e-9);
  EXPECT_NEAR(dv[2], 0.5, 1e-9);
  auto dc = f.bucket_frac[static_cast<size_t>(Metric::kDeployCores)];
  EXPECT_NEAR(dc[1], 0.5, 1e-9);
  EXPECT_NEAR(dc[3], 0.5, 1e-9);
  EXPECT_NEAR(f.mean_deploy_vms, 25.5, 1e-9);
}

TEST(FeatureDataBuilderTest, SubscriptionsIsolated) {
  FeatureDataBuilder builder;
  builder.ObserveUtilization(1, 0.9, 0.95, 1);
  builder.ObserveUtilization(2, 0.1, 0.15, 1);
  EXPECT_NEAR(builder.Snapshot(1).mean_avg_cpu, 0.9, 1e-9);
  EXPECT_NEAR(builder.Snapshot(2).mean_avg_cpu, 0.1, 1e-9);
  EXPECT_EQ(builder.size(), 2u);
}

TEST(FeatureDataBuilderTest, ObserveVmComposition) {
  VmRecord vm;
  vm.subscription_id = 3;
  vm.avg_cpu = 0.4;
  vm.p95_max_cpu = 0.8;
  vm.cores = 4;
  vm.created = 0;
  vm.deleted = 2 * kHour;
  FeatureDataBuilder builder;
  builder.ObserveVm(vm, WorkloadClass::kDelayInsensitive);
  SubscriptionFeatures f = builder.Snapshot(3);
  EXPECT_EQ(f.vm_count, 1);
  EXPECT_NEAR(f.bucket_frac[static_cast<size_t>(Metric::kAvgCpu)][1], 1.0, 1e-9);
  EXPECT_NEAR(f.bucket_frac[static_cast<size_t>(Metric::kP95Cpu)][3], 1.0, 1e-9);
  EXPECT_NEAR(f.bucket_frac[static_cast<size_t>(Metric::kLifetime)][2], 1.0, 1e-9);
  EXPECT_NEAR(f.bucket_frac[static_cast<size_t>(Metric::kClass)][0], 1.0, 1e-9);
}

}  // namespace
}  // namespace rc::core
