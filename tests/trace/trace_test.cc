#include "src/trace/trace.h"

#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/trace/trace_io.h"
#include "src/trace/workload_model.h"

namespace rc::trace {
namespace {

VmRecord MakeVm(uint64_t id, uint64_t sub, SimTime created, SimTime deleted) {
  VmRecord vm;
  vm.vm_id = id;
  vm.subscription_id = sub;
  vm.created = created;
  vm.deleted = deleted;
  return vm;
}

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() {
    SubscriptionProfile s1, s2;
    s1.subscription_id = 1;
    s2.subscription_id = 2;
    std::vector<VmRecord> vms;
    vms.push_back(MakeVm(10, 1, 500, 900));
    vms.push_back(MakeVm(11, 2, 100, 2 * kDay));
    vms.push_back(MakeVm(12, 1, 300, kDay + 100));
    trace_ = Trace({s1, s2}, std::move(vms), kDay);
  }
  Trace trace_;
};

TEST_F(TraceTest, SortsByCreation) {
  ASSERT_EQ(trace_.vm_count(), 3u);
  EXPECT_EQ(trace_.vms()[0].vm_id, 11u);
  EXPECT_EQ(trace_.vms()[1].vm_id, 12u);
  EXPECT_EQ(trace_.vms()[2].vm_id, 10u);
}

TEST_F(TraceTest, SubscriptionIndex) {
  const auto& sub1 = trace_.VmsOfSubscription(1);
  ASSERT_EQ(sub1.size(), 2u);
  EXPECT_EQ(trace_.vms()[sub1[0]].vm_id, 12u);  // creation order
  EXPECT_EQ(trace_.vms()[sub1[1]].vm_id, 10u);
  EXPECT_TRUE(trace_.VmsOfSubscription(999).empty());
}

TEST_F(TraceTest, FindSubscription) {
  ASSERT_NE(trace_.FindSubscription(2), nullptr);
  EXPECT_EQ(trace_.FindSubscription(2)->subscription_id, 2u);
  EXPECT_EQ(trace_.FindSubscription(7), nullptr);
}

TEST_F(TraceTest, CompletedVmsRespectWindow) {
  auto completed = trace_.CompletedVms();
  // Window is 1 day: vm 10 (ends 900) completes; 11 and 12 do not.
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0]->vm_id, 10u);
}

TEST_F(TraceTest, VmsCreatedInWindow) {
  auto in_window = trace_.VmsCreatedIn(200, 400);
  ASSERT_EQ(in_window.size(), 1u);
  EXPECT_EQ(in_window[0]->vm_id, 12u);
  EXPECT_EQ(trace_.VmsCreatedIn(5000, 6000).size(), 0u);
}

TEST_F(TraceTest, TieBreakOnVmId) {
  std::vector<VmRecord> vms;
  vms.push_back(MakeVm(5, 1, 100, 200));
  vms.push_back(MakeVm(3, 1, 100, 200));
  Trace t({}, std::move(vms), kDay);
  EXPECT_EQ(t.vms()[0].vm_id, 3u);
}

Trace GeneratedTrace() {
  WorkloadConfig config;
  config.target_vm_count = 3000;
  config.num_subscriptions = 120;
  config.seed = 31;
  return WorkloadModel(config).Generate();
}

// The subscription index holds, for every id a VM carries, exactly the
// indices a scan of vms() finds, in creation order; other ids read empty.
void ExpectIndexMatchesScan(const Trace& t) {
  std::set<uint64_t> ids;
  for (const VmRecord& vm : t.vms()) ids.insert(vm.subscription_id);
  ASSERT_GT(ids.size(), 1u);
  for (uint64_t id : ids) {
    std::vector<uint32_t> scanned;
    for (size_t i = 0; i < t.vm_count(); ++i) {
      if (t.vms()[i].subscription_id == id) scanned.push_back(static_cast<uint32_t>(i));
    }
    auto indexed = t.VmsOfSubscription(id);
    ASSERT_EQ(std::vector<uint32_t>(indexed.begin(), indexed.end()), scanned) << id;
  }
  EXPECT_TRUE(t.VmsOfSubscription(*ids.rbegin() + 1).empty());
  if (*ids.begin() > 0) {
    EXPECT_TRUE(t.VmsOfSubscription(*ids.begin() - 1).empty());
  }
}

TEST(TraceIndexTest, SubscriptionIndexMatchesScanOnGeneratedTrace) {
  Trace t = GeneratedTrace();
  ASSERT_FALSE(t.subscriptions().empty());
  ExpectIndexMatchesScan(t);
}

TEST(TraceIndexTest, SubscriptionIndexMatchesScanOnReadTrace) {
  // A trace read from CSV has no subscription profiles; the index comes
  // from the VMs alone.
  Trace generated = GeneratedTrace();
  std::stringstream ss;
  WriteVmTable(generated, ss);
  Trace t = ReadVmTable(ss, generated.observation_window());
  ASSERT_TRUE(t.subscriptions().empty());
  ExpectIndexMatchesScan(t);
}

TEST(TraceIndexTest, EmptyTraceHasEmptyIndex) {
  Trace t;
  EXPECT_TRUE(t.VmsOfSubscription(0).empty());
  EXPECT_TRUE(t.VmsCreatedIn(0, kDay).empty());
}

TEST(TraceIndexTest, VmsCreatedInMatchesLinearFilter) {
  Trace t = GeneratedTrace();
  auto linear = [&](SimTime from, SimTime to) {
    std::vector<const VmRecord*> out;
    for (const auto& vm : t.vms()) {
      if (vm.created >= from && vm.created < to) out.push_back(&vm);
    }
    return out;
  };
  const auto& vms = t.vms();
  ASSERT_GT(vms.size(), 100u);
  // Windows that start or end exactly on a created value, on either side of
  // it, plus ones past both ends and an inverted one.
  std::vector<std::pair<SimTime, SimTime>> windows = {
      {vms[10].created, vms[90].created},
      {vms[10].created + 1, vms[90].created - 1},
      {vms[10].created - 1, vms[90].created + 1},
      {vms[50].created, vms[50].created},
      {vms[50].created, vms[50].created + 1},
      {vms.front().created - kDay, vms.back().created},
      {vms.front().created, vms.back().created + 1},
      {vms.back().created + 1, vms.back().created + kDay},
      {vms[90].created, vms[10].created},
      {10 * kDay, 20 * kDay},
  };
  for (const auto& [from, to] : windows) {
    EXPECT_EQ(t.VmsCreatedIn(from, to), linear(from, to)) << from << ".." << to;
  }
}

}  // namespace
}  // namespace rc::trace
