#include "src/sched/simulator.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/obs/trace_context.h"
#include "src/trace/workload_model.h"

namespace rc::sched {
namespace {

using rc::trace::Trace;
using rc::trace::WorkloadConfig;
using rc::trace::WorkloadModel;

// Compact scheduler-study workload: first-party only, light tail (see
// bench/sched_* for the full-size version).
WorkloadConfig SimWorkload(int64_t vms) {
  WorkloadConfig config;
  config.target_vm_count = vms;
  config.duration = 7 * kDay;
  config.num_subscriptions = 400;
  config.frac_first_party = 1.0;
  config.first_party_production_prob = 0.71;
  config.lifetime_cap_days = 5.0;
  config.lifetime_tail_alpha = 1.0;
  config.popularity_cap = 0.0015;
  config.resident_interactive_vm_frac = 0.002;
  config.deploy_vms_marginal = {0.49, 0.41, 0.10, 0.0};
  // Hotter than the default first-party mix so oversubscription actually
  // produces >100% readings at this miniature scale.
  config.first_avg_util_marginal = {0.55, 0.3, 0.1, 0.05};
  config.first_p95_given_low_avg = {0.1, 0.1, 0.2, 0.6};
  config.seed = 4242;
  return config;
}

const Trace& SimTrace() {
  static const Trace* trace =
      new Trace(WorkloadModel(SimWorkload(30000)).Generate());
  return *trace;
}

SimConfig SmallSim() {
  SimConfig config;
  config.cluster = ClusterConfig{96, 16, 112.0};
  config.horizon = 7 * kDay;
  return config;
}

SimResult RunPolicy(PolicyKind kind, const SimConfig& sim_config,
                    OversubParams oversub = {}) {
  Cluster cluster(sim_config.cluster);
  PolicyConfig config;
  config.kind = kind;
  config.oversub = oversub;
  SchedulingPolicy policy(config, &cluster, nullptr);
  ClusterSimulator sim(sim_config);
  return sim.Run(RequestsFromTrace(SimTrace(), sim_config.horizon), policy);
}

TEST(SimulatorTest, RequestsSortedAndTagged) {
  auto requests = RequestsFromTrace(SimTrace(), 7 * kDay);
  ASSERT_FALSE(requests.empty());
  SimTime prev = -1;
  int64_t nonprod = 0;
  for (const auto& r : requests) {
    ASSERT_GE(r.arrival, prev);
    prev = r.arrival;
    ASSERT_NE(r.source, nullptr);
    ASSERT_GT(r.departure, r.arrival);
    if (!r.production) ++nonprod;
  }
  // ~29% non-production (paper: 71% production tags).
  double frac = static_cast<double>(nonprod) / static_cast<double>(requests.size());
  EXPECT_NEAR(frac, 0.29, 0.08);
}

TEST(SimulatorTest, RequestsComeInTraceOrderWhichIsArrivalThenVmId) {
  // RequestsFromTrace does not sort: trace order is already (arrival, vm_id).
  const auto requests = RequestsFromTrace(SimTrace(), 7 * kDay);
  auto key_less = [](const VmRequest& a, const VmRequest& b) {
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.vm_id < b.vm_id;
  };
  ASSERT_TRUE(std::is_sorted(requests.begin(), requests.end(), key_less));
  auto resorted = requests;
  std::sort(resorted.begin(), resorted.end(), key_less);
  ASSERT_EQ(resorted.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(resorted[i].vm_id, requests[i].vm_id);
    ASSERT_EQ(resorted[i].source, requests[i].source);
  }
  size_t in_horizon = 0;
  for (const auto& vm : SimTrace().vms()) in_horizon += vm.created < 7 * kDay;
  EXPECT_EQ(requests.size(), in_horizon);
}

TEST(SimulatorTest, BaselineNeverExceedsPhysical) {
  SimResult result = RunPolicy(PolicyKind::kBaseline, SmallSim());
  EXPECT_EQ(result.overload_readings, 0);
  EXPECT_EQ(result.oversub_placements, 0);
  EXPECT_GT(result.occupied_readings, 0);
  EXPECT_GT(result.mean_occupied_utilization, 0.0);
  EXPECT_LE(result.p99_utilization, 1.0 + 1e-9);
}

TEST(SimulatorTest, CountsAllArrivals) {
  SimResult result = RunPolicy(PolicyKind::kBaseline, SmallSim());
  EXPECT_EQ(result.total_vms,
            static_cast<int64_t>(RequestsFromTrace(SimTrace(), 7 * kDay).size()));
}

TEST(SimulatorTest, OverCapacityClusterFails) {
  SimConfig tiny = SmallSim();
  tiny.cluster.num_servers = 4;
  SimResult result = RunPolicy(PolicyKind::kBaseline, tiny);
  EXPECT_GT(result.failures, 0);
  EXPECT_GT(result.failure_rate(), 0.5);
}

TEST(SimulatorTest, OracleBeatsWrongOnOverloads) {
  // The §6.2 headline, in miniature: with a cluster sized so that
  // oversubscription happens, correct P95 predictions produce far fewer
  // >100% readings than adversarially wrong ones.
  // A low-failure regime (like the paper's study): in a saturated cluster
  // the soft utilization cap is constantly disregarded and every policy
  // degenerates to the same packing. MAX_UTIL at 90% leaves slack for the
  // max-over-p95 tail, which can overload even under perfect predictions
  // when many high percentiles align — an effect the paper itself notes.
  SimConfig hot = SmallSim();
  hot.cluster.num_servers = 240;
  OversubParams slack{1.25, 0.9};
  SimResult right = RunPolicy(PolicyKind::kRcSoftRight, hot, slack);
  SimResult wrong = RunPolicy(PolicyKind::kRcSoftWrong, hot, slack);
  SimResult naive = RunPolicy(PolicyKind::kNaive, hot, slack);
  EXPECT_GT(naive.oversub_placements, 0);
  EXPECT_GT(wrong.overload_readings, 0);
  EXPECT_LT(right.overload_readings, wrong.overload_readings);
  EXPECT_LT(right.overload_readings, naive.overload_readings);
}

TEST(SimulatorTest, UtilizationInflationSensitivity) {
  SimConfig plain = SmallSim();
  SimConfig inflated = SmallSim();
  inflated.util_inflation = 0.25;
  SimResult base = RunPolicy(PolicyKind::kNaive, plain);
  SimResult hot = RunPolicy(PolicyKind::kNaive, inflated);
  EXPECT_GT(hot.mean_occupied_utilization, base.mean_occupied_utilization + 0.2);
  EXPECT_GE(hot.overload_readings, base.overload_readings);
}

TEST(SimulatorTest, DeterministicForSameInputs) {
  SimResult a = RunPolicy(PolicyKind::kRcSoftRight, SmallSim());
  SimResult b = RunPolicy(PolicyKind::kRcSoftRight, SmallSim());
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.overload_readings, b.overload_readings);
  EXPECT_EQ(a.occupied_readings, b.occupied_readings);
}

TEST(SimulatorTest, MaxOversubSweepMonotoneOversubscription) {
  // Lower MAX_OVERSUB -> fewer oversubscribed placements.
  SimConfig hot = SmallSim();
  hot.cluster.num_servers = 72;
  int64_t prev = std::numeric_limits<int64_t>::max();
  for (double oversub : {1.25, 1.15, 1.0}) {
    Cluster cluster(hot.cluster);
    PolicyConfig config;
    config.kind = PolicyKind::kRcSoftRight;
    config.oversub.max_oversub = oversub;
    SchedulingPolicy policy(config, &cluster, nullptr);
    ClusterSimulator sim(hot);
    SimResult result = sim.Run(RequestsFromTrace(SimTrace(), hot.horizon), policy);
    EXPECT_LE(result.oversub_placements, prev);
    prev = result.oversub_placements;
    if (oversub == 1.0) {
      EXPECT_EQ(result.oversub_placements, 0);
    }
  }
}

// rc_sim_slot_latency_us is always on: one sample per simulated slot, with
// trace sampling off.
TEST(SimulatorTest, SlotLatencyTakesOneSamplePerSlot) {
  ASSERT_EQ(rc::obs::Tracer::Global().sample_every(), 0u);
  SimConfig config = SmallSim();
  config.horizon = kDay;
  rc::obs::MetricsRegistry reg;
  config.metrics = &reg;
  Cluster cluster(config.cluster);
  SchedulingPolicy policy(PolicyConfig{}, &cluster, nullptr);
  ClusterSimulator(config).Run(RequestsFromTrace(SimTrace(), config.horizon), policy);
  EXPECT_EQ(reg.GetHistogram("rc_sim_slot_latency_us").TakeSnapshot().count,
            static_cast<uint64_t>(config.horizon / kSlot));
}

TEST(SimulatorTest, HeadroomGaugeMatchesRecountAndSkipsDrainedServers) {
  // A week whose last events fall before the last slot, so the final
  // per-slot sample sees the cluster as the month leaves it.
  SimConfig config = SmallSim();
  rc::obs::MetricsRegistry reg;
  config.metrics = &reg;
  const SimTime cut = config.horizon - 2 * kSlot;
  std::vector<VmRequest> requests;
  for (const VmRequest& req : RequestsFromTrace(SimTrace(), cut)) {
    if (req.departure < cut || req.departure > config.horizon) requests.push_back(req);
  }
  Cluster cluster(config.cluster);
  PolicyConfig policy_config;
  policy_config.kind = PolicyKind::kRcSoftRight;
  SchedulingPolicy policy(policy_config, &cluster, nullptr);
  ClusterSimulator(config).Run(requests, policy);

  double recount = 0.0;
  int drained_oversub = 0;
  for (int id = 0; id < cluster.size(); ++id) {
    const Server& s = cluster.server(id);
    if (s.kind != ServerKind::kOversubscribable) continue;
    if (s.empty()) {
      ++drained_oversub;  // tagged by its last tenant; belongs to no group
    } else {
      recount += std::max(0.0, cluster.physical_cores() - s.alloc_cores);
    }
  }
  EXPECT_GT(recount, 0.0);
  EXPECT_GT(drained_oversub, 0);
  EXPECT_EQ(cluster.oversub_headroom_cores(), recount);
  EXPECT_EQ(reg.GetGauge("rc_sim_oversub_headroom_cores").Value(), recount);
}

}  // namespace
}  // namespace rc::sched
