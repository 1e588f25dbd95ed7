// Generative model of an Azure-like VM workload, calibrated against every
// distribution the paper publishes (Section 3 figures and the bucket
// marginals in Table 4):
//
//  * VM type: ~52/48 IaaS/PaaS overall; 96% of subscriptions single-type.
//  * Avg CPU bucket marginal ~{74,19,6,2}% and P95-max marginal
//    ~{25,15,14,46}% (Table 4), with first-party lower than third (Fig. 1).
//  * Sizes: ~80% of VMs with 1-2 cores, ~70% under 4 GB (Figs. 2-3).
//  * Deployments: ~{49,40,10,1}% across the {1, 2-10, 11-100, >100} buckets
//    (Fig. 4 / Table 4).
//  * Lifetimes: ~{29,32,32,7}% across {<=15m, 15-60m, 1-24h, >24h}, Pareto
//    tail beyond one day so that a few percent of VMs dominate core-hours
//    (Fig. 5); 15% of first-party VMs are short-lived creation-test VMs.
//  * Workload class: interactive VMs are long-lived diurnal services; they
//    are ~1% of classifiable VMs by count but hold a large share (~28%) of
//    core-hours because resident interactive services span the window
//    (Fig. 6). Delay-insensitive VMs dominate.
//  * Arrivals: heavy-tailed (Weibull) and diurnal/weekly (Fig. 7).
//
// Crucially, behaviour is planted at the *subscription* level: each
// subscription has a dominant bucket per metric and a consistency parameter,
// which is exactly the "history predicts the future" structure the paper
// measures (CoV < 1 for most subscriptions) and that RC's per-subscription
// features exploit. Prediction accuracy in our Table 4 reproduction is an
// emergent property of this structure, not hard-wired.
#ifndef RC_SRC_TRACE_WORKLOAD_MODEL_H_
#define RC_SRC_TRACE_WORKLOAD_MODEL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/trace/arrival_process.h"
#include "src/trace/trace.h"
#include "src/trace/vm_size_catalog.h"
#include "src/trace/vm_types.h"

namespace rc::trace {

struct WorkloadConfig {
  uint64_t seed = 42;
  // Approximate number of VMs to generate (the generator stops once reached).
  int64_t target_vm_count = 100'000;
  // Observation window (the paper's dataset spans three months).
  SimDuration duration = 90 * kDay;
  int num_subscriptions = 2'000;

  double frac_first_party = 0.55;
  // Fraction of first-party VMs that are VM-creation test workloads
  // (created and quickly killed, near-zero utilization). Paper: 15%.
  double first_party_test_frac = 0.15;
  // P(first-party subscription is tagged production). Third-party
  // subscriptions are always treated as production. Tuned so ~71% of VMs
  // carry the production tag, matching the scheduler study.
  double first_party_production_prob = 0.55;

  // Dominant-VM-type probabilities (Section 3.1).
  double first_party_iaas_prob = 0.53;
  double third_party_iaas_prob = 0.47;
  double single_type_subscription_frac = 0.96;

  // Per-party avg-CPU bucket marginals (Table 4 row 1, split by party so the
  // pooled marginal lands at ~{74,19,6,2}% with first party lower, Fig. 1).
  std::array<double, 4> first_avg_util_marginal = {0.80, 0.15, 0.04, 0.01};
  std::array<double, 4> third_avg_util_marginal = {0.64, 0.25, 0.08, 0.03};
  // P(p95 bucket | avg bucket = 0), per party; rows for avg buckets 1..3 are
  // fixed in the implementation (mass shifts to high p95 as avg grows).
  std::array<double, 4> first_p95_given_low_avg = {0.40, 0.20, 0.15, 0.25};
  std::array<double, 4> third_p95_given_low_avg = {0.22, 0.18, 0.13, 0.47};

  // Per-party lifetime bucket marginals (pooled ~{29,32,32,7}%).
  std::array<double, 4> first_lifetime_marginal = {0.36, 0.30, 0.28, 0.06};
  std::array<double, 4> third_lifetime_marginal = {0.20, 0.31, 0.40, 0.09};
  // Pareto tail index for lifetimes beyond 24h and cap in days.
  double lifetime_tail_alpha = 0.68;
  double lifetime_cap_days = 150.0;

  // Deployment-size (#VMs) bucket marginal per deployment *event* (Fig. 4 /
  // Table 4). The realized per-(subscription, region, day) marginal lands
  // near the paper's {49, 40, 10, 1}% after same-day events merge and the
  // arrival weighting (see popularity_cap) is applied.
  std::array<double, 4> deploy_vms_marginal = {0.38, 0.50, 0.11, 0.01};

  // Subscription consistency: the probability that a VM realizes its
  // subscription's dominant bucket is drawn uniformly from this range, which
  // reproduces "80% of subscriptions have CoV < 1" style observations and
  // sets the ceiling for prediction accuracy.
  double min_metric_consistency = 0.72;
  double max_metric_consistency = 0.97;

  // Interactive residents: long-lived diurnal services created near the
  // start of the window (gaming / communication style first-party services).
  double resident_interactive_vm_frac = 0.008;
  // Probability that a non-resident subscription is interactive-leaning.
  // Interactive churn is rare: most interactive capacity is resident services
  // (which is why ~99% of newly created classifiable VMs are
  // delay-insensitive, Table 4, while interactive still holds a large share
  // of core-hours, Fig. 6).
  double interactive_subscription_frac = 0.004;

  // Cap on any single subscription's share of deployment arrivals. The
  // default reproduces the bursty, Zipf-skewed mix of Fig. 7; the scheduler
  // study lowers it so cluster-scale results are not dominated by one
  // subscription's lucky profile draw.
  double popularity_cap = 0.01;

  ArrivalConfig arrivals;  // peak inter-arrival is overridden; see .cc
};

class WorkloadModel {
 public:
  explicit WorkloadModel(WorkloadConfig config);

  // Generates the full trace: subscription profiles plus VM records sorted
  // by creation time. Deterministic for a given config.
  Trace Generate();

  const VmSizeCatalog& catalog() const { return catalog_; }

 private:
  SubscriptionProfile MakeSubscription(uint64_t id, Rng& rng);
  // Samples one VM of the given subscription, created at `created`.
  VmRecord MakeVm(const SubscriptionProfile& sub, uint64_t vm_id, uint64_t deployment_id,
                  int region, SimTime created, Rng& rng);

  int SampleVmBucket(int dominant, const std::array<double, 4>& marginal,
                     double consistency, Rng& rng) const;
  double SampleAvgUtil(int bucket, Party party, Rng& rng) const;
  int SampleP95Bucket(int avg_bucket, Party party, Rng& rng) const;
  SimDuration SampleLifetime(int bucket, double sub_pos, bool test_vm, Rng& rng) const;
  int64_t SampleDeploymentVmCount(int bucket, Rng& rng) const;

  WorkloadConfig config_;
  VmSizeCatalog catalog_;
};

}  // namespace rc::trace

#endif  // RC_SRC_TRACE_WORKLOAD_MODEL_H_
