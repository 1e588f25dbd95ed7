// Seed-parameterized invariants of the workload model: structural
// well-formedness must hold for every seed and scale, not just the
// calibration fixture.
#include <gtest/gtest.h>

#include "src/common/buckets.h"
#include "src/trace/utilization.h"
#include "src/trace/workload_model.h"

namespace rc::trace {
namespace {

class WorkloadProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  WorkloadProperty() {
    WorkloadConfig config;
    config.target_vm_count = 5000;
    config.num_subscriptions = 250;
    config.duration = 45 * kDay;
    config.seed = GetParam();
    trace_ = WorkloadModel(config).Generate();
  }
  Trace trace_;
};

TEST_P(WorkloadProperty, StructuralInvariants) {
  ASSERT_GT(trace_.vm_count(), 4000u);
  std::set<uint64_t> vm_ids;
  for (const auto& vm : trace_.vms()) {
    ASSERT_TRUE(vm_ids.insert(vm.vm_id).second) << "duplicate vm id";
    ASSERT_GE(vm.created, 0);
    ASSERT_GT(vm.deleted, vm.created);
    ASSERT_GE(vm.lifetime(), 20);
    ASSERT_GT(vm.cores, 0);
    ASSERT_LE(vm.cores, 16);
    ASSERT_GE(vm.memory_gb, 0.75);
    ASSERT_LE(vm.memory_gb, 112.0);
    ASSERT_GE(vm.avg_cpu, 0.0);
    ASSERT_LE(vm.p95_max_cpu, 1.0);
    ASSERT_LE(vm.avg_cpu, vm.p95_max_cpu + 1e-9);
    // IaaS VMs carry no role; PaaS VMs run one of the four roles.
    ASSERT_EQ(vm.role == Role::kIaas, vm.vm_type == VmType::kIaas);
    ASSERT_LE(static_cast<int>(vm.role), static_cast<int>(Role::kDbRole));
    ASSERT_LE(vm.service, kNumServices);
    // Third-party VMs never carry named first-party services or non-prod tags.
    if (vm.party == Party::kThird) {
      ASSERT_EQ(vm.service, 0);
      ASSERT_EQ(vm.tag, DeploymentTag::kProduction);
    }
    // Class labels consistent with lifetime and diurnal amplitude.
    if (vm.lifetime() < 3 * kDay) {
      ASSERT_EQ(vm.true_class, WorkloadClass::kUnknown);
    } else {
      ASSERT_NE(vm.true_class, WorkloadClass::kUnknown);
    }
  }
}

TEST_P(WorkloadProperty, DeploymentsGroupConsistently) {
  // VMs sharing a deployment id share subscription, region, and party, and
  // arrive within the same burst window.
  std::map<uint64_t, const VmRecord*> first_of;
  for (const auto& vm : trace_.vms()) {
    auto [it, inserted] = first_of.try_emplace(vm.deployment_id, &vm);
    if (inserted) continue;
    const VmRecord* first = it->second;
    ASSERT_EQ(vm.subscription_id, first->subscription_id);
    ASSERT_EQ(vm.region, first->region);
    ASSERT_EQ(vm.party, first->party);
    ASSERT_LE(std::abs(vm.created - first->created), 10 * kMinute);
  }
}

TEST_P(WorkloadProperty, TelemetryMatchesStoredSummaries) {
  for (size_t i = 0; i < trace_.vm_count(); i += 501) {
    const VmRecord& vm = trace_.vms()[i];
    auto summary = UtilizationModel::Summarize(vm);
    ASSERT_NEAR(summary.avg_cpu, vm.avg_cpu, 1e-9);
    ASSERT_NEAR(summary.p95_max_cpu, vm.p95_max_cpu, 1e-9);
  }
}

TEST_P(WorkloadProperty, BucketsCoverAllMetrics) {
  // Every bucket function maps every VM into range.
  for (const auto& vm : trace_.vms()) {
    ASSERT_GE(UtilizationBucket(vm.avg_cpu), 0);
    ASSERT_LT(UtilizationBucket(vm.avg_cpu), 4);
    ASSERT_GE(LifetimeBucket(vm.lifetime()), 0);
    ASSERT_LT(LifetimeBucket(vm.lifetime()), 4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadProperty,
                         ::testing::Values(1, 7, 42, 1234, 99999));

}  // namespace
}  // namespace rc::trace
