// Edge cases of the offline pipeline's time windows: an observation landing
// exactly at an example's creation instant, at the window end `to`, or at a
// snapshot's `until`; a VM created at `to - 1`; a deployment day that
// straddles a mid-day `to`; and an `until` past the end of the trace. The
// pipeline only ever reads the observations it needs for a window, so these
// pin that the cut-off sits exactly where the unwindowed definition puts it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/core/offline_pipeline.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

using rc::trace::Trace;
using rc::trace::VmRecord;

constexpr SimTime kDay5 = 5 * kDay;
constexpr SimTime kTo = kDay5 + 12 * kHour;  // mid-day window end

VmRecord Vm(uint64_t id, uint64_t sub, SimTime created, SimTime deleted, int cores = 1) {
  VmRecord vm;
  vm.vm_id = id;
  vm.subscription_id = sub;
  vm.cores = cores;
  vm.created = created;
  vm.deleted = deleted;
  vm.avg_cpu = 10.0 + static_cast<double>(id);
  vm.p95_max_cpu = 40.0 + static_cast<double>(id);
  return vm;
}

// Subscription 7: `a` is learned (util + lifetime) at kTo - 1, the instant
// `b` is created; `c` is learned at kTo. Subscription 9: one deployment day
// whose first VM is before kTo and whose second is after it.
const Trace& EdgeTrace() {
  static const Trace* trace = [] {
    std::vector<VmRecord> vms = {
        Vm(1, 7, kDay5 + 1 * kHour, kTo - 1),           // a
        Vm(2, 7, kTo - 1, kDay5 + 2 * kDay),            // b, created at to - 1
        Vm(3, 7, kDay5 + 30 * kMinute, kTo),            // c
        Vm(4, 9, kDay5 + 6 * kHour, kDay5 + 7 * kHour),  // e
        Vm(5, 9, kDay5 + 18 * kHour, kDay5 + 19 * kHour),  // f, after kTo
        Vm(6, 7, kDay5 + 3 * kDay, kDay5 + 20 * kDay),  // runs past the window
    };
    return new Trace({}, std::move(vms), 10 * kDay);
  }();
  return *trace;
}

const LabeledExample* FindExample(const std::vector<LabeledExample>& examples,
                                  uint64_t sub, int deploy_hour) {
  for (const auto& e : examples) {
    if (e.inputs.subscription_id == sub && e.inputs.deploy_hour == deploy_hour) return &e;
  }
  return nullptr;
}

bool SameFeatures(const SubscriptionFeatures& x, const SubscriptionFeatures& y) {
  return x.subscription_id == y.subscription_id && x.vm_count == y.vm_count &&
         x.deployment_count == y.deployment_count && x.bucket_frac == y.bucket_frac &&
         x.mean_avg_cpu == y.mean_avg_cpu && x.mean_p95_cpu == y.mean_p95_cpu &&
         x.mean_log_lifetime == y.mean_log_lifetime && x.mean_cores == y.mean_cores &&
         x.mean_deploy_vms == y.mean_deploy_vms;
}

bool SameExample(const LabeledExample& x, const LabeledExample& y) {
  const ClientInputs& a = x.inputs;
  const ClientInputs& b = y.inputs;
  return a.subscription_id == b.subscription_id && a.vm_type == b.vm_type &&
         a.guest_os == b.guest_os && a.role == b.role && a.cores == b.cores &&
         a.memory_gb == b.memory_gb && a.size_index == b.size_index &&
         a.region == b.region && a.deploy_hour == b.deploy_hour &&
         a.deploy_dow == b.deploy_dow && a.service_id == b.service_id &&
         SameFeatures(x.history, y.history) && x.label == y.label;
}

TEST(PipelineWindowTest, ObservationAtToMinusOneIsSeenAndAtToIsNot) {
  auto examples = OfflinePipeline::BuildExamples(EdgeTrace(), Metric::kAvgCpu, 0, kTo, false);
  // a, b, c and e are created before kTo; f and the late VM are not.
  ASSERT_EQ(examples.size(), 4u);
  // b was created at kTo - 1, so it is inside [from, to).
  const LabeledExample* b = FindExample(examples, 7, 11);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->inputs.cores, 1);
  // a's utilization and lifetime landed at kTo - 1 == b's creation: seen.
  // c's land at kTo: not seen.
  EXPECT_EQ(b->history.vm_count, 1);
  EXPECT_EQ(b->history.mean_avg_cpu, 11.0);
  EXPECT_EQ(b->history.mean_log_lifetime,
            std::log(static_cast<double>(kTo - 1 - (kDay5 + 1 * kHour))));
}

TEST(PipelineWindowTest, WindowedExamplesArePrefixOfLongerWindow) {
  for (Metric metric : kAllMetrics) {
    auto windowed = OfflinePipeline::BuildExamples(EdgeTrace(), metric, 0, kTo, false);
    auto full = OfflinePipeline::BuildExamples(EdgeTrace(), metric, 0, 10 * kDay, false);
    ASSERT_LE(windowed.size(), full.size()) << MetricName(metric);
    for (size_t i = 0; i < windowed.size(); ++i) {
      EXPECT_TRUE(SameExample(windowed[i], full[i])) << MetricName(metric) << " #" << i;
    }
  }
}

TEST(PipelineWindowTest, DeploymentDayStraddlingToKeepsFullGroupCount) {
  for (Metric metric : {Metric::kDeployVms, Metric::kDeployCores}) {
    auto examples = OfflinePipeline::BuildExamples(EdgeTrace(), metric, 0, kTo, false);
    // Subscription 9's day-5 group starts at 06:00 (inside the window) and
    // gains its second VM at 18:00 (after kTo): the label counts both.
    const LabeledExample* e = FindExample(examples, 9, 6);
    ASSERT_NE(e, nullptr) << MetricName(metric);
    EXPECT_EQ(e->label, DeploymentSizeBucket(2)) << MetricName(metric);
  }
  // The group's observation lands at the end of day 5 with both VMs.
  auto before = OfflinePipeline::BuildFeatureSnapshot(EdgeTrace(), 6 * kDay - 1, false);
  auto at = OfflinePipeline::BuildFeatureSnapshot(EdgeTrace(), 6 * kDay, false);
  EXPECT_EQ(before.at(9).deployment_count, 0);
  EXPECT_EQ(at.at(9).deployment_count, 1);
  EXPECT_EQ(at.at(9).mean_deploy_vms, 2.0);
}

TEST(PipelineWindowTest, SnapshotIncludesObservationAtUntil) {
  // c's lifetime (and utilization) is learned at exactly kTo.
  auto before = OfflinePipeline::BuildFeatureSnapshot(EdgeTrace(), kTo - 1, false);
  auto at = OfflinePipeline::BuildFeatureSnapshot(EdgeTrace(), kTo, false);
  EXPECT_EQ(before.at(7).vm_count, 1);
  EXPECT_EQ(at.at(7).vm_count, 2);
  EXPECT_EQ(at.at(7).mean_avg_cpu, (11.0 + 13.0) / 2);
}

TEST(PipelineWindowTest, UntilPastTheTraceEqualsTheUnwindowedSnapshot) {
  // `last` is the latest instant any observation lands: a termination or
  // the end of a deployment day.
  rc::trace::WorkloadConfig config;
  config.target_vm_count = 3000;
  config.duration = 30 * kDay;
  config.num_subscriptions = 100;
  config.seed = 99;
  const Trace generated = rc::trace::WorkloadModel(config).Generate();
  for (const Trace* trace : {&EdgeTrace(), &generated}) {
    SimTime last = 0;
    for (const VmRecord& vm : trace->vms()) {
      last = std::max({last, vm.deleted, (vm.created / kDay + 1) * kDay});
    }
    for (bool fft : {false, true}) {
      auto bounded = OfflinePipeline::BuildFeatureSnapshot(*trace, last, fft);
      auto unbounded = OfflinePipeline::BuildFeatureSnapshot(
          *trace, std::numeric_limits<SimTime>::max(), fft);
      ASSERT_EQ(bounded.size(), unbounded.size());
      for (const auto& [id, features] : unbounded) {
        ASSERT_TRUE(bounded.contains(id)) << id;
        EXPECT_TRUE(SameFeatures(bounded.at(id), features)) << id;
      }
    }
  }
}

}  // namespace
}  // namespace rc::core
