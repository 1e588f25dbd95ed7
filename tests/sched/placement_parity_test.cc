// Placement parity: Scheduler::Schedule offers its rule chain only the
// non-empty servers plus the lowest-id empty one, and filters without
// branches. This suite replays random request streams, with departures,
// through the scheduler and through an oracle that offers every server and
// filters with remove_if, the straightforward reading of the rule chain, and
// asserts after every step that both chose the same server, that the two
// clusters hold the same state, and that the rule counters agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/sched/policies.h"

namespace rc::sched {
namespace {

// One rule as the oracle applies it: the same name, hardness and per-server
// verdict as the production rule of that name.
struct OracleRule {
  std::string name;
  bool hard;
  std::function<bool(const VmRequest&, const Cluster&, const Server&)> keep;
};

OracleRule StrictFit() {
  return {"strict-fit", true, [](const VmRequest& vm, const Cluster& c, const Server& s) {
            return c.FitsStrict(vm, s);
          }};
}

OracleRule OversubFit(OversubParams params, bool enforce_util_check) {
  return {"oversub-fit", true,
          [=](const VmRequest& vm, const Cluster& c, const Server& s) {
            const double physical = c.physical_cores();
            if (vm.production) {
              bool group_ok = s.empty() || s.kind == ServerKind::kNonOversubscribable;
              return group_ok && c.FitsStrict(vm, s);
            }
            bool group_ok = s.empty() || s.kind == ServerKind::kOversubscribable;
            if (!group_ok || !c.FitsMemory(vm, s)) return false;
            if (s.alloc_cores + vm.cores > params.max_oversub * physical + 1e-9) return false;
            if (enforce_util_check &&
                s.util_cores + vm.predicted_util_fraction * vm.cores >
                    params.max_util * physical + 1e-9) {
              return false;
            }
            return true;
          }};
}

OracleRule UtilCap(OversubParams params) {
  return {"util-cap", false, [=](const VmRequest& vm, const Cluster& c, const Server& s) {
            if (vm.production) return true;
            return s.util_cores + vm.predicted_util_fraction * vm.cores <=
                   params.max_util * c.physical_cores() + 1e-9;
          }};
}

OracleRule AvoidOversub() {
  return {"avoid-oversub", false, [](const VmRequest& vm, const Cluster& c, const Server& s) {
            if (vm.production) return true;
            return s.alloc_cores + vm.cores <= c.physical_cores() + 1e-9;
          }};
}

OracleRule PreferNonEmpty() {
  return {"prefer-non-empty", false,
          [](const VmRequest&, const Cluster&, const Server& s) { return !s.empty(); }};
}

// The rule chain each policy builds (policies.cc), in oracle form.
std::vector<OracleRule> OracleChain(PolicyKind kind, OversubParams params) {
  switch (kind) {
    case PolicyKind::kBaseline:
      return {StrictFit(), PreferNonEmpty()};
    case PolicyKind::kNaive:
      return {OversubFit(params, false), PreferNonEmpty(), AvoidOversub()};
    case PolicyKind::kRcInformedHard:
      return {OversubFit(params, true), PreferNonEmpty(), AvoidOversub()};
    case PolicyKind::kRcInformedSoft:
    case PolicyKind::kRcSoftRight:
    case PolicyKind::kRcSoftWrong:
      return {OversubFit(params, false), UtilCap(params), PreferNonEmpty(), AvoidOversub()};
  }
  return {};
}

// The rule-chain scheduler over the whole cluster: every server is a
// candidate, each rule erases with remove_if, soft rules are disregarded
// when they would leave no candidate, and the pick is the highest
// alloc_cores, first id on ties.
class OracleScheduler {
 public:
  OracleScheduler(Cluster* cluster, std::vector<OracleRule> rules)
      : cluster_(cluster), rules_(std::move(rules)) {}

  std::optional<int> Schedule(const VmRequest& vm) {
    std::vector<int> candidates(static_cast<size_t>(cluster_->size()));
    std::iota(candidates.begin(), candidates.end(), 0);
    for (const OracleRule& rule : rules_) {
      std::vector<int> before = candidates;
      candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                      [&](int id) {
                                        return !rule.keep(vm, *cluster_, cluster_->server(id));
                                      }),
                       candidates.end());
      if (!candidates.empty()) continue;
      if (rule.hard) {
        ++rejections[rule.name];
        return std::nullopt;
      }
      ++softened[rule.name];
      candidates = std::move(before);
    }
    int best = candidates.front();
    for (int id : candidates) {
      if (cluster_->server(id).alloc_cores > cluster_->server(best).alloc_cores) best = id;
    }
    cluster_->PlaceVm(vm, best);
    return best;
  }

  std::map<std::string, uint64_t> rejections;
  std::map<std::string, uint64_t> softened;

 private:
  Cluster* cluster_;
  std::vector<OracleRule> rules_;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Every field of every server, bit for bit (kind included, stale or not),
// plus the incrementally kept headroom against a recount.
void ExpectSameState(const Cluster& got, const Cluster& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size());
  double headroom = 0.0;
  for (int id = 0; id < got.size(); ++id) {
    const Server& a = got.server(id);
    const Server& b = want.server(id);
    ASSERT_TRUE(SameBits(a.alloc_cores, b.alloc_cores)) << where << " server " << id;
    ASSERT_TRUE(SameBits(a.util_cores, b.util_cores)) << where << " server " << id;
    ASSERT_TRUE(SameBits(a.alloc_mem, b.alloc_mem)) << where << " server " << id;
    ASSERT_EQ(a.active_vms, b.active_vms) << where << " server " << id;
    ASSERT_EQ(a.kind, b.kind) << where << " server " << id;
    if (!a.empty() && a.kind == ServerKind::kOversubscribable) {
      headroom += std::max(0.0, got.physical_cores() - a.alloc_cores);
    }
  }
  ASSERT_EQ(got.oversub_headroom_cores(), headroom) << where;
}

struct Stream {
  int servers;
  int steps;
  uint64_t seed;
};

// Random arrivals and departures. Core counts and memory follow the VM size
// catalog's shapes loosely; a fifth of the steps retire a random hosted VM,
// so servers drain and rejoin the empty pool in both groups.
template <typename PlaceFn, typename CompleteFn>
void DriveStream(const Stream& stream, std::vector<rc::trace::VmRecord>& sources,
                 PlaceFn place, CompleteFn complete) {
  Rng rng(stream.seed);
  struct Hosted {
    VmRequest vm;
    int server;
  };
  std::vector<Hosted> hosted;
  const int cores[] = {1, 1, 2, 2, 4, 8, 16};
  for (int step = 0; step < stream.steps; ++step) {
    if (!hosted.empty() && rng.Uniform(0.0, 1.0) < 0.2) {
      const size_t i =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(hosted.size()) - 1));
      complete(hosted[i].vm, hosted[i].server, step);
      hosted[i] = hosted.back();
      hosted.pop_back();
      continue;
    }
    VmRequest vm;
    vm.vm_id = static_cast<uint64_t>(step);
    vm.cores = cores[rng.UniformInt(0, 6)];
    vm.memory_gb = vm.cores * (rng.Uniform(0.0, 1.0) < 0.5 ? 1.75 : 7.0);
    vm.production = rng.Uniform(0.0, 1.0) < 0.6;
    rc::trace::VmRecord& source = sources[static_cast<size_t>(step)];
    source.vm_id = vm.vm_id;
    source.p95_max_cpu = rng.Uniform(0.0, 1.0);
    vm.source = &source;
    if (std::optional<int> server = place(vm, step)) hosted.push_back({vm, *server});
  }
}

uint64_t CounterValue(rc::obs::MetricsRegistry& reg, const char* family, const std::string& rule) {
  return reg.GetCounter(family, {{"rule", rule}}).Value();
}

class PlacementParityTest : public ::testing::TestWithParam<Stream> {};

TEST_P(PlacementParityTest, AllPoliciesMatchTheFullClusterOracle) {
  const Stream stream = GetParam();
  const PolicyKind kinds[] = {PolicyKind::kBaseline,       PolicyKind::kNaive,
                              PolicyKind::kRcInformedSoft, PolicyKind::kRcInformedHard,
                              PolicyKind::kRcSoftRight,    PolicyKind::kRcSoftWrong};
  uint64_t softened = 0;
  for (PolicyKind kind : kinds) {
    SCOPED_TRACE(ToString(kind));
    const ClusterConfig config{stream.servers, 16, 112.0};
    Cluster cluster(config);
    Cluster oracle_cluster(config);
    rc::obs::MetricsRegistry reg;
    PolicyConfig policy_config;
    policy_config.kind = kind;
    policy_config.metrics = &reg;
    // A deterministic stand-in for the client: a bucket and a confidence
    // per VM id, some below the policy's 0.6 threshold.
    UtilPredictor predictor = [](const VmRequest& vm) {
      Rng rng(vm.vm_id * 7919 + 1);
      return rc::core::Prediction::Of(static_cast<int>(rng.UniformInt(0, 3)),
                                      rng.Uniform(0.3, 1.0));
    };
    SchedulingPolicy policy(policy_config, &cluster, predictor);
    OracleScheduler oracle(&oracle_cluster, OracleChain(kind, policy_config.oversub));

    std::vector<rc::trace::VmRecord> sources(static_cast<size_t>(stream.steps));
    int64_t placed = 0, failed = 0, drained = 0;
    DriveStream(
        stream, sources,
        [&](VmRequest& vm, int step) {
          std::optional<int> got = policy.Place(vm);  // fills the util fraction
          std::optional<int> want = oracle.Schedule(vm);
          EXPECT_EQ(got, want) << "step " << step;
          ExpectSameState(cluster, oracle_cluster, "step " + std::to_string(step));
          (got ? placed : failed) += 1;
          return got;
        },
        [&](const VmRequest& vm, int server, int step) {
          policy.Complete(vm, server);
          oracle_cluster.CompleteVm(vm, server);
          drained += cluster.server(server).empty();
          ExpectSameState(cluster, oracle_cluster, "departure at step " + std::to_string(step));
        });
    if (HasFatalFailure() || HasNonfatalFailure()) return;

    for (const OracleRule& rule : OracleChain(kind, policy_config.oversub)) {
      EXPECT_EQ(CounterValue(reg, "rc_sched_rule_rejections", rule.name),
                oracle.rejections[rule.name])
          << rule.name;
      EXPECT_EQ(CounterValue(reg, "rc_sched_rule_softened", rule.name),
                oracle.softened[rule.name])
          << rule.name;
      softened += oracle.softened[rule.name];
    }
    // The stream exercised what the candidate set has to get right.
    EXPECT_GT(placed, 0);
    EXPECT_GT(failed, 0);
    EXPECT_GT(drained, 0);
  }
  EXPECT_GT(softened, 0u);
}

TEST_P(PlacementParityTest, BareStrictFitPreferNonEmptyChainMatchesOracle) {
  const Stream stream = GetParam();
  const ClusterConfig config{stream.servers, 16, 112.0};
  Cluster cluster(config);
  Cluster oracle_cluster(config);
  rc::obs::MetricsRegistry reg;
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<StrictFitRule>());
  rules.push_back(std::make_unique<PreferNonEmptyRule>());
  Scheduler scheduler(&cluster, std::move(rules), &reg);
  OracleScheduler oracle(&oracle_cluster, {StrictFit(), PreferNonEmpty()});

  std::vector<rc::trace::VmRecord> sources(static_cast<size_t>(stream.steps));
  DriveStream(
      stream, sources,
      [&](VmRequest& vm, int step) {
        std::optional<int> got = scheduler.Schedule(vm);
        EXPECT_EQ(got, oracle.Schedule(vm)) << "step " << step;
        ExpectSameState(cluster, oracle_cluster, "step " + std::to_string(step));
        return got;
      },
      [&](const VmRequest& vm, int server, int step) {
        scheduler.Complete(vm, server);
        oracle_cluster.CompleteVm(vm, server);
        ExpectSameState(cluster, oracle_cluster, "departure at step " + std::to_string(step));
      });
  for (const char* rule : {"strict-fit", "prefer-non-empty"}) {
    EXPECT_EQ(CounterValue(reg, "rc_sched_rule_rejections", rule), oracle.rejections[rule]);
    EXPECT_EQ(CounterValue(reg, "rc_sched_rule_softened", rule), oracle.softened[rule]);
  }
}

// Cluster sizes around the 64-server bitset words: one server, a word less
// one, exactly one word, a word plus one, and a few words with a ragged end.
INSTANTIATE_TEST_SUITE_P(Streams, PlacementParityTest,
                         ::testing::Values(Stream{1, 300, 11}, Stream{63, 3000, 12},
                                           Stream{64, 3000, 13}, Stream{65, 3000, 14},
                                           Stream{130, 5000, 15}),
                         [](const ::testing::TestParamInfo<Stream>& info) {
                           return "Servers" + std::to_string(info.param.servers);
                         });

}  // namespace
}  // namespace rc::sched
