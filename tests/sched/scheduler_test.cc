#include "src/sched/scheduler.h"

#include <gtest/gtest.h>

#include "src/obs/trace_context.h"
#include "src/sched/policies.h"

namespace rc::sched {
namespace {

VmRequest Vm(uint64_t id, int cores, bool production, double util = 1.0) {
  VmRequest vm;
  vm.vm_id = id;
  vm.cores = cores;
  vm.memory_gb = 1.0;
  vm.production = production;
  vm.predicted_util_fraction = util;
  return vm;
}

std::vector<std::unique_ptr<Rule>> BaselineRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<StrictFitRule>());
  rules.push_back(std::make_unique<PreferNonEmptyRule>());
  return rules;
}

TEST(SchedulerTest, PacksTightly) {
  Cluster cluster(ClusterConfig{3, 16, 112.0});
  Scheduler scheduler(&cluster, BaselineRules());
  // First VM opens a server; subsequent VMs pile onto it (best fit).
  EXPECT_TRUE(scheduler.Schedule(Vm(1, 4, true)).has_value());
  auto second = scheduler.Schedule(Vm(2, 4, true));
  ASSERT_TRUE(second.has_value());
  auto third = scheduler.Schedule(Vm(3, 4, true));
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(cluster.server(*second).alloc_cores, cluster.server(*third).alloc_cores);
  int used = 0;
  for (int i = 0; i < cluster.size(); ++i) {
    if (!cluster.server(i).empty()) ++used;
  }
  EXPECT_EQ(used, 1);
}

TEST(SchedulerTest, FailsWhenFull) {
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  Scheduler scheduler(&cluster, BaselineRules());
  EXPECT_TRUE(scheduler.Schedule(Vm(1, 16, true)).has_value());
  EXPECT_FALSE(scheduler.Schedule(Vm(2, 1, true)).has_value());
}

// rc_sched_place_latency_us is always on: one sample per Schedule(), placed
// or rejected, with trace sampling off.
TEST(SchedulerTest, PlaceLatencyTakesOneSamplePerSchedule) {
  ASSERT_EQ(rc::obs::Tracer::Global().sample_every(), 0u);
  rc::obs::MetricsRegistry reg;
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  Scheduler scheduler(&cluster, BaselineRules(), &reg);
  EXPECT_TRUE(scheduler.Schedule(Vm(1, 8, true)).has_value());
  EXPECT_TRUE(scheduler.Schedule(Vm(2, 8, true)).has_value());
  EXPECT_FALSE(scheduler.Schedule(Vm(3, 1, true)).has_value());
  EXPECT_EQ(reg.GetHistogram("rc_sched_place_latency_us").TakeSnapshot().count, 3u);
}

TEST(SchedulerTest, CompleteFreesCapacity) {
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  Scheduler scheduler(&cluster, BaselineRules());
  VmRequest big = Vm(1, 16, true);
  auto server = scheduler.Schedule(big);
  ASSERT_TRUE(server.has_value());
  scheduler.Complete(big, *server);
  EXPECT_TRUE(scheduler.Schedule(Vm(2, 16, true)).has_value());
}

TEST(SchedulerTest, SoftRuleSkippedWhenItWouldEmpty) {
  // Chain: strict fit (hard) + prefer-non-empty (soft). With an empty
  // cluster the soft rule would eliminate everything; it must be skipped.
  Cluster cluster(ClusterConfig{2, 16, 112.0});
  Scheduler scheduler(&cluster, BaselineRules());
  EXPECT_TRUE(scheduler.Schedule(Vm(1, 2, true)).has_value());
}

TEST(PolicyTest, BaselineNeverOversubscribes) {
  Cluster cluster(ClusterConfig{2, 16, 112.0});
  PolicyConfig config;
  config.kind = PolicyKind::kBaseline;
  SchedulingPolicy policy(config, &cluster, nullptr);
  int placed = 0;
  for (uint64_t i = 0; i < 40; ++i) {
    VmRequest vm = Vm(i, 2, i % 2 == 0);
    if (policy.Place(vm).has_value()) ++placed;
  }
  EXPECT_EQ(placed, 16);  // 32 cores / 2
  for (int s = 0; s < cluster.size(); ++s) {
    EXPECT_LE(cluster.server(s).alloc_cores, 16.0);
  }
}

TEST(PolicyTest, NaiveOversubscribesToAllocationCap) {
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  PolicyConfig config;
  config.kind = PolicyKind::kNaive;
  SchedulingPolicy policy(config, &cluster, nullptr);
  int placed = 0;
  for (uint64_t i = 0; i < 40; ++i) {
    VmRequest vm = Vm(i, 2, /*production=*/false);
    if (policy.Place(vm).has_value()) ++placed;
  }
  EXPECT_EQ(placed, 10);  // 125% of 16 = 20 cores
}

TEST(PolicyTest, RcInformedHardRespectsUtilizationCap) {
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  PolicyConfig config;
  config.kind = PolicyKind::kRcInformedHard;
  // Predictor: always bucket 3 (75-100%) with high confidence -> books
  // 100% of allocation; cap binds at 16 booked cores.
  SchedulingPolicy policy(config, &cluster, [](const VmRequest&) {
    return rc::core::Prediction::Of(3, 0.9);
  });
  int placed = 0;
  for (uint64_t i = 0; i < 40; ++i) {
    VmRequest vm = Vm(i, 2, false);
    if (policy.Place(vm).has_value()) ++placed;
  }
  EXPECT_EQ(placed, 8);  // util cap (16 cores at 1.0) binds before alloc cap
}

TEST(PolicyTest, RcInformedUsesBucketHighValue) {
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  PolicyConfig config;
  config.kind = PolicyKind::kRcInformedSoft;
  SchedulingPolicy policy(config, &cluster, [](const VmRequest&) {
    return rc::core::Prediction::Of(0, 0.95);  // 0-25% bucket
  });
  VmRequest vm = Vm(1, 4, false);
  EXPECT_DOUBLE_EQ(policy.UtilFractionFor(vm), 0.25);
}

TEST(PolicyTest, LowConfidenceAssumesFullUtilization) {
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  PolicyConfig config;
  config.kind = PolicyKind::kRcInformedSoft;
  config.confidence_threshold = 0.6;
  SchedulingPolicy policy(config, &cluster, [](const VmRequest&) {
    return rc::core::Prediction::Of(0, 0.59);
  });
  EXPECT_DOUBLE_EQ(policy.UtilFractionFor(Vm(1, 4, false)), 1.0);
}

TEST(PolicyTest, NoPredictionAssumesFullUtilization) {
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  PolicyConfig config;
  config.kind = PolicyKind::kRcInformedSoft;
  SchedulingPolicy policy(config, &cluster, [](const VmRequest&) {
    return rc::core::Prediction::None();
  });
  EXPECT_DOUBLE_EQ(policy.UtilFractionFor(Vm(1, 4, false)), 1.0);
}

TEST(PolicyTest, OracleUsesTrueBucket) {
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  PolicyConfig config;
  config.kind = PolicyKind::kRcSoftRight;
  SchedulingPolicy policy(config, &cluster, nullptr);
  rc::trace::VmRecord record;
  record.p95_max_cpu = 0.6;  // bucket 2 -> high value 0.75
  VmRequest vm = Vm(1, 4, false);
  vm.source = &record;
  EXPECT_DOUBLE_EQ(policy.UtilFractionFor(vm), 0.75);
}

TEST(PolicyTest, WrongPolicyNeverPicksTrueBucket) {
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  PolicyConfig config;
  config.kind = PolicyKind::kRcSoftWrong;
  SchedulingPolicy policy(config, &cluster, nullptr);
  rc::trace::VmRecord record;
  record.p95_max_cpu = 0.6;  // true bucket 2 -> high value 0.75
  VmRequest vm = Vm(1, 4, false);
  vm.source = &record;
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(policy.UtilFractionFor(vm), 0.75);
  }
}

TEST(PolicyTest, BucketShiftSensitivity) {
  Cluster cluster(ClusterConfig{1, 16, 112.0});
  PolicyConfig config;
  config.kind = PolicyKind::kRcSoftRight;
  config.bucket_shift = 1;
  SchedulingPolicy policy(config, &cluster, nullptr);
  rc::trace::VmRecord record;
  record.p95_max_cpu = 0.3;  // bucket 1, shifted to 2 -> 0.75
  VmRequest vm = Vm(1, 4, false);
  vm.source = &record;
  EXPECT_DOUBLE_EQ(policy.UtilFractionFor(vm), 0.75);
  record.p95_max_cpu = 0.99;  // bucket 3 stays 3 (clamped)
  EXPECT_DOUBLE_EQ(policy.UtilFractionFor(vm), 1.0);
}

TEST(PolicyTest, ProductionAndNonProductionSegregated) {
  Cluster cluster(ClusterConfig{2, 16, 112.0});
  PolicyConfig config;
  config.kind = PolicyKind::kRcInformedSoft;
  SchedulingPolicy policy(config, &cluster, [](const VmRequest&) {
    return rc::core::Prediction::Of(0, 0.9);
  });
  VmRequest prod = Vm(1, 4, true);
  VmRequest nonprod = Vm(2, 4, false);
  auto s1 = policy.Place(prod);
  auto s2 = policy.Place(nonprod);
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_NE(*s1, *s2);
  EXPECT_EQ(cluster.server(*s1).kind, ServerKind::kNonOversubscribable);
  EXPECT_EQ(cluster.server(*s2).kind, ServerKind::kOversubscribable);
}

TEST(PolicyTest, ToStringNames) {
  EXPECT_STREQ(ToString(PolicyKind::kBaseline), "Baseline");
  EXPECT_STREQ(ToString(PolicyKind::kRcInformedSoft), "RC-informed-soft");
  EXPECT_STREQ(ToString(PolicyKind::kRcSoftWrong), "RC-soft-wrong");
}

}  // namespace
}  // namespace rc::sched
