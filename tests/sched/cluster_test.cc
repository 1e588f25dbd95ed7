#include "src/sched/cluster.h"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <vector>

namespace rc::sched {
namespace {

VmRequest Vm(int cores, double mem, bool production, double util = 1.0) {
  VmRequest vm;
  vm.cores = cores;
  vm.memory_gb = mem;
  vm.production = production;
  vm.predicted_util_fraction = util;
  return vm;
}

ClusterConfig SmallCluster() { return ClusterConfig{4, 16, 112.0}; }

TEST(ClusterTest, PlaceTagsEmptyServer) {
  Cluster cluster(SmallCluster());
  cluster.PlaceVm(Vm(2, 7, /*production=*/true), 0);
  EXPECT_EQ(cluster.server(0).kind, ServerKind::kNonOversubscribable);
  cluster.PlaceVm(Vm(2, 7, /*production=*/false), 1);
  EXPECT_EQ(cluster.server(1).kind, ServerKind::kOversubscribable);
}

TEST(ClusterTest, LedgersTrackPlacements) {
  Cluster cluster(SmallCluster());
  VmRequest a = Vm(4, 14, false, 0.5);
  VmRequest b = Vm(2, 7, false, 0.25);
  cluster.PlaceVm(a, 0);
  cluster.PlaceVm(b, 0);
  const Server& s = cluster.server(0);
  EXPECT_DOUBLE_EQ(s.alloc_cores, 6.0);
  EXPECT_DOUBLE_EQ(s.alloc_mem, 21.0);
  EXPECT_DOUBLE_EQ(s.util_cores, 0.5 * 4 + 0.25 * 2);
  EXPECT_EQ(s.active_vms, 2);
  cluster.CompleteVm(a, 0);
  EXPECT_DOUBLE_EQ(cluster.server(0).alloc_cores, 2.0);
  EXPECT_DOUBLE_EQ(cluster.server(0).util_cores, 0.5);
}

TEST(ClusterTest, ProductionServersSkipUtilLedger) {
  Cluster cluster(SmallCluster());
  cluster.PlaceVm(Vm(4, 14, /*production=*/true, 0.5), 0);
  EXPECT_DOUBLE_EQ(cluster.server(0).util_cores, 0.0);
}

TEST(ClusterTest, DrainResetsToEmpty) {
  Cluster cluster(SmallCluster());
  VmRequest vm = Vm(4, 14, false, 0.3);
  cluster.PlaceVm(vm, 2);
  EXPECT_FALSE(cluster.server(2).empty());
  cluster.CompleteVm(vm, 2);
  EXPECT_TRUE(cluster.server(2).empty());
  EXPECT_DOUBLE_EQ(cluster.server(2).alloc_cores, 0.0);
  // A drained server can be re-tagged by the next placement.
  cluster.PlaceVm(Vm(1, 2, true), 2);
  EXPECT_EQ(cluster.server(2).kind, ServerKind::kNonOversubscribable);
}

TEST(ClusterTest, FitChecks) {
  Cluster cluster(SmallCluster());
  cluster.PlaceVm(Vm(14, 100, true), 0);
  EXPECT_TRUE(cluster.FitsStrict(Vm(2, 12, true), cluster.server(0)));
  EXPECT_FALSE(cluster.FitsStrict(Vm(4, 4, true), cluster.server(0)));   // cores
  EXPECT_FALSE(cluster.FitsStrict(Vm(2, 13, true), cluster.server(0)));  // memory
  EXPECT_TRUE(cluster.FitsMemory(Vm(16, 12, true), cluster.server(0)));
}

TEST(ClusterTest, HeadroomCountsNonEmptyOversubscribableServersOnly) {
  Cluster cluster(SmallCluster());
  EXPECT_EQ(cluster.oversub_headroom_cores(), 0.0);
  VmRequest a = Vm(4, 14, /*production=*/false);
  VmRequest b = Vm(16, 14, /*production=*/false);
  cluster.PlaceVm(a, 0);                        // 12 spare
  cluster.PlaceVm(Vm(8, 14, /*production=*/true), 1);  // not oversubscribable
  cluster.PlaceVm(b, 2);
  cluster.PlaceVm(Vm(4, 14, /*production=*/false), 2);  // 20 of 16: none spare
  EXPECT_EQ(cluster.oversub_headroom_cores(), 12.0);
  // A drained server keeps its last tag but has left the group.
  cluster.CompleteVm(a, 0);
  EXPECT_EQ(cluster.server(0).kind, ServerKind::kOversubscribable);
  EXPECT_EQ(cluster.oversub_headroom_cores(), 0.0);
  cluster.CompleteVm(b, 2);
  EXPECT_EQ(cluster.oversub_headroom_cores(), 12.0);
}

std::vector<int> Candidates(const Cluster& cluster, std::optional<ServerKind> kind) {
  std::vector<int> out = {42};  // replaced, not appended to
  cluster.CandidateServers(kind, out);
  return out;
}

TEST(ClusterTest, CandidatesAreNonEmptyServersPlusLowestEmptyInIdOrder) {
  // 130 servers: three bitset words, the last one ragged.
  Cluster cluster(ClusterConfig{130, 16, 112.0});
  using V = std::vector<int>;
  EXPECT_EQ(Candidates(cluster, std::nullopt), V{0});
  EXPECT_EQ(Candidates(cluster, ServerKind::kOversubscribable), V{0});
  VmRequest prod = Vm(1, 1, /*production=*/true);
  VmRequest batch = Vm(1, 1, /*production=*/false);
  for (int id = 0; id < 64; ++id) cluster.PlaceVm(prod, id);
  cluster.PlaceVm(batch, 65);
  cluster.PlaceVm(batch, 129);
  cluster.PlaceVm(prod, 70);
  V all(64);
  std::iota(all.begin(), all.end(), 0);
  V want = all;
  want.insert(want.end(), {64, 65, 70, 129});
  EXPECT_EQ(Candidates(cluster, std::nullopt), want);
  want = all;
  want.insert(want.end(), {64, 70});
  EXPECT_EQ(Candidates(cluster, ServerKind::kNonOversubscribable), want);
  EXPECT_EQ(Candidates(cluster, ServerKind::kOversubscribable), (V{64, 65, 129}));
  // Draining server 3 makes it the lowest empty server.
  cluster.CompleteVm(prod, 3);
  EXPECT_EQ(Candidates(cluster, ServerKind::kOversubscribable), (V{3, 65, 129}));
  // A full cluster offers no empty server.
  for (int id = 0; id < 130; ++id) {
    if (cluster.server(id).empty()) cluster.PlaceVm(batch, id);
  }
  EXPECT_EQ(Candidates(cluster, ServerKind::kNonOversubscribable).size(), 64u);
  EXPECT_EQ(Candidates(cluster, std::nullopt).size(), 130u);
}

}  // namespace
}  // namespace rc::sched
