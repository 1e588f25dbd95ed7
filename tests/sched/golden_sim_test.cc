// Golden-value regression test for the Section 6.2 simulator: one short
// month of month-2 arrivals replayed under Baseline, Naive and
// RC-informed-soft, the last fed by a real client over a P95 model trained
// on month 1. The trace generator, the trainer (per-tree seeds, so thread
// count does not matter), the engine walk (scalar and AVX2 are bit-exact)
// and the simulator are all deterministic, so the pinned counts move only
// when behaviour does. An intentional change must update the goldens
// consciously; a refactor or speed-up of any of these layers must not.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/client.h"
#include "src/core/featurizer.h"
#include "src/core/offline_pipeline.h"
#include "src/ml/random_forest.h"
#include "src/sched/simulator.h"
#include "src/store/kv_store.h"
#include "src/trace/workload_model.h"

namespace rc::sched {
namespace {

using rc::core::ClientInputs;
using rc::core::OfflinePipeline;

constexpr SimTime kMonth = 30 * kDay;

// A first-party two-month trace, hotter than the default mix so that
// oversubscription produces >100% readings at this miniature scale. The
// 20-server cluster is small enough that every policy also fails some
// placements.
rc::trace::WorkloadConfig GoldenWorkload() {
  rc::trace::WorkloadConfig config;
  config.target_vm_count = 12000;
  config.duration = 2 * kMonth;
  config.num_subscriptions = 400;
  config.frac_first_party = 1.0;
  config.first_party_production_prob = 0.71;
  config.lifetime_cap_days = 5.0;
  config.lifetime_tail_alpha = 1.0;
  config.popularity_cap = 0.0015;
  config.resident_interactive_vm_frac = 0.002;
  config.deploy_vms_marginal = {0.49, 0.41, 0.10, 0.0};
  config.first_avg_util_marginal = {0.55, 0.3, 0.1, 0.05};
  config.first_p95_given_low_avg = {0.1, 0.1, 0.2, 0.6};
  config.seed = 2017;
  return config;
}

class GoldenSimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new rc::trace::Trace(rc::trace::WorkloadModel(GoldenWorkload()).Generate());
    // Month-2 arrivals, rebased so the simulator clock starts at 0.
    requests_ = new std::vector<VmRequest>();
    for (VmRequest req : RequestsFromTrace(*trace_, 2 * kMonth)) {
      if (req.arrival < kMonth) continue;
      req.arrival -= kMonth;
      req.departure -= kMonth;
      requests_->push_back(req);
    }

    // Publish only the P95 model Algorithm 1 consumes, trained on month 1,
    // plus the month-1 feature snapshot.
    const rc::Metric metric = rc::Metric::kP95Cpu;
    rc::core::Featurizer featurizer(metric, OfflinePipeline::EncodingFor(metric));
    rc::ml::Dataset data = OfflinePipeline::ToDataset(
        OfflinePipeline::BuildExamples(*trace_, metric, 0, kMonth, false), featurizer);
    rc::ml::RandomForestConfig rf;
    rf.num_trees = 8;
    rf.tree.max_depth = 10;
    rf.seed = 3;
    rc::ml::RandomForest model = rc::ml::RandomForest::Fit(data, rf);
    rc::core::ModelSpec spec;
    spec.name = rc::MetricModelName(metric);
    spec.metric = metric;
    spec.encoding = OfflinePipeline::EncodingFor(metric);
    spec.model_family = model.type_name();
    spec.num_features = static_cast<uint32_t>(featurizer.num_features());
    spec.version = 1;
    store_ = new rc::store::KvStore();
    store_->Put(rc::core::SpecKey(spec.name), spec.Serialize());
    store_->Put(rc::core::ModelKey(spec.name), model.SerializeTagged());
    for (const auto& [sub_id, features] :
         OfflinePipeline::BuildFeatureSnapshot(*trace_, kMonth, false)) {
      store_->Put(rc::core::FeatureKey(sub_id), features.Serialize());
    }
  }

  static SimResult Run(PolicyKind kind) {
    SimConfig sim_config;
    sim_config.cluster = ClusterConfig{20, 16, 112.0};
    sim_config.horizon = kMonth;
    Cluster cluster(sim_config.cluster);
    PolicyConfig policy_config;
    policy_config.kind = kind;

    rc::core::Client client(store_, rc::core::ClientConfig{});
    EXPECT_TRUE(client.Initialize());
    static const rc::trace::VmSizeCatalog catalog;
    UtilPredictor single;
    BatchUtilPredictor batch;
    if (kind == PolicyKind::kRcInformedSoft) {
      single = [&](const VmRequest& vm) {
        return client.PredictSingle("VM_P95UTIL", rc::core::InputsFromVm(*vm.source, catalog));
      };
      batch = [&](std::span<const VmRequest> vms) {
        std::vector<ClientInputs> inputs;
        inputs.reserve(vms.size());
        for (const VmRequest& vm : vms) {
          inputs.push_back(rc::core::InputsFromVm(*vm.source, catalog));
        }
        return client.PredictMany("VM_P95UTIL", inputs);
      };
    }
    SchedulingPolicy policy(policy_config, &cluster, std::move(single), std::move(batch));
    return ClusterSimulator(sim_config).Run(*requests_, policy);
  }

  static const rc::trace::Trace* trace_;
  static std::vector<VmRequest>* requests_;
  static rc::store::KvStore* store_;
};

const rc::trace::Trace* GoldenSimTest::trace_ = nullptr;
std::vector<VmRequest>* GoldenSimTest::requests_ = nullptr;
rc::store::KvStore* GoldenSimTest::store_ = nullptr;

struct Golden {
  PolicyKind kind;
  int64_t total_vms;
  int64_t failures;
  int64_t overload_readings;
  int64_t oversub_placements;
  int64_t occupied_readings;
  // Bit patterns of the two double outcomes: the month is pinned exactly,
  // so a change in summation order or a lost reading shows up here.
  uint64_t mean_occupied_utilization_bits;
  uint64_t p99_utilization_bits;
};

TEST_F(GoldenSimTest, OneMonthOutcomesArePinned) {
  ASSERT_EQ(requests_->size(), 5181u);
  // Baseline never oversubscribes; Naive oversubscribes blind; the
  // RC-informed soft rule keeps most oversubscribed placements off >100%.
  const Golden goldens[] = {
      // mean 0.4003022986501284, P99 0.835
      {PolicyKind::kBaseline, 5181, 57, 0, 0, 73482, 0x3fd99e8d884dd1bdULL,
       0x3feab851eb851eb8ULL},
      // mean 0.37797672212229938, P99 0.865
      {PolicyKind::kNaive, 5181, 72, 29, 246, 76685, 0x3fd830c5470a8814ULL,
       0x3febae147ae147aeULL},
      // mean 0.36855506348895317, P99 0.825
      {PolicyKind::kRcInformedSoft, 5181, 78, 5, 60, 78931, 0x3fd79667fa1d74dcULL,
       0x3fea666666666666ULL},
  };
  for (const Golden& g : goldens) {
    const SimResult r = Run(g.kind);
    EXPECT_EQ(r.total_vms, g.total_vms) << ToString(g.kind);
    EXPECT_EQ(r.failures, g.failures) << ToString(g.kind);
    EXPECT_EQ(r.overload_readings, g.overload_readings) << ToString(g.kind);
    EXPECT_EQ(r.oversub_placements, g.oversub_placements) << ToString(g.kind);
    EXPECT_EQ(r.occupied_readings, g.occupied_readings) << ToString(g.kind);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.mean_occupied_utilization),
              g.mean_occupied_utilization_bits)
        << ToString(g.kind) << " mean " << r.mean_occupied_utilization;
    EXPECT_EQ(std::bit_cast<uint64_t>(r.p99_utilization), g.p99_utilization_bits)
        << ToString(g.kind) << " p99 " << r.p99_utilization;
  }
}

}  // namespace
}  // namespace rc::sched
