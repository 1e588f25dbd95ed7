#include "src/trace/workload_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/buckets.h"
#include "src/common/parallel.h"
#include "src/trace/utilization.h"

namespace rc::trace {

namespace {

// P(p95 bucket | avg bucket) rows for avg buckets 1..3 (bucket 0 is
// party-specific, see WorkloadConfig). As average utilization grows, the
// 95th percentile mass concentrates in the top bucket.
const std::array<double, 4> kP95GivenAvg1 = {0.0, 0.05, 0.15, 0.80};
const std::array<double, 4> kP95GivenAvg2 = {0.0, 0.00, 0.10, 0.90};
const std::array<double, 4> kP95GivenAvg3 = {0.0, 0.00, 0.00, 1.00};

// Mean #VMs per deployment implied by a bucket marginal; used to size the
// arrival process so the target VM count lands inside the window.
double MeanDeploymentVms(const std::array<double, 4>& marginal) {
  return marginal[0] * 1.0 + marginal[1] * 4.5 + marginal[2] * 30.0 + marginal[3] * 160.0;
}

size_t SampleFrom(const std::array<double, 4>& marginal, Rng& rng) {
  return rng.Categorical(std::vector<double>(marginal.begin(), marginal.end()));
}

// Uniform-in-log sample in [lo, hi].
double LogUniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.Uniform(std::log(lo), std::log(hi)));
}

}  // namespace

WorkloadModel::WorkloadModel(WorkloadConfig config) : config_(std::move(config)) {}

SubscriptionProfile WorkloadModel::MakeSubscription(uint64_t id, Rng& rng) {
  SubscriptionProfile sub;
  sub.subscription_id = id;
  sub.party = rng.Bernoulli(config_.frac_first_party) ? Party::kFirst : Party::kThird;

  double iaas_prob = sub.party == Party::kFirst ? config_.first_party_iaas_prob
                                                : config_.third_party_iaas_prob;
  sub.dominant_type = rng.Bernoulli(iaas_prob) ? VmType::kIaas : VmType::kPaas;
  sub.type_consistency =
      rng.Bernoulli(config_.single_type_subscription_frac) ? 1.0 : 0.7;

  sub.dominant_os =
      rng.Bernoulli(sub.party == Party::kFirst ? 0.45 : 0.55) ? GuestOs::kLinux
                                                              : GuestOs::kWindows;
  sub.tag = (sub.party == Party::kFirst &&
             !rng.Bernoulli(config_.first_party_production_prob))
                ? DeploymentTag::kNonProduction
                : DeploymentTag::kProduction;

  if (sub.party == Party::kFirst && rng.Bernoulli(0.6)) {
    // Zipf-ish assignment over 20 named top services.
    int svc = static_cast<int>(std::min<double>(19.0, std::floor(rng.Pareto(1.0, 1.2)) - 1.0));
    sub.service = static_cast<uint8_t>(svc + 1);
  }
  sub.home_region = static_cast<int32_t>(rng.UniformInt(0, kNumRegions - 1));

  const auto& avg_marginal = sub.party == Party::kFirst ? config_.first_avg_util_marginal
                                                        : config_.third_avg_util_marginal;
  sub.avg_util_bucket = static_cast<int>(SampleFrom(avg_marginal, rng));
  sub.p95_util_bucket = SampleP95Bucket(sub.avg_util_bucket, sub.party, rng);
  const auto& life_marginal = sub.party == Party::kFirst ? config_.first_lifetime_marginal
                                                         : config_.third_lifetime_marginal;
  sub.lifetime_bucket = static_cast<int>(SampleFrom(life_marginal, rng));
  sub.lifetime_pos = rng.NextDouble();
  sub.deploy_vms_bucket = static_cast<int>(SampleFrom(config_.deploy_vms_marginal, rng));
  sub.metric_consistency =
      rng.Uniform(config_.min_metric_consistency, config_.max_metric_consistency);

  sub.size_index = catalog_.SampleIndex(sub.party, rng);
  sub.size_consistency = rng.Uniform(0.85, 0.98);

  sub.interactive_prob =
      rng.Bernoulli(config_.interactive_subscription_frac) ? 0.85 : 0.001;
  if (sub.interactive_prob > 0.5) {
    // Interactive services are long-running; their subscriptions' dominant
    // lifetime regime is the >24h bucket.
    sub.lifetime_bucket = 3;
  }
  sub.popularity = 1.0;
  return sub;
}

int WorkloadModel::SampleVmBucket(int dominant, const std::array<double, 4>& marginal,
                                  double consistency, Rng& rng) const {
  if (rng.Bernoulli(consistency)) return dominant;
  return static_cast<int>(SampleFrom(marginal, rng));
}

double WorkloadModel::SampleAvgUtil(int bucket, Party party, Rng& rng) const {
  double u = rng.NextDouble();
  // Skew toward the low end of the bucket; first party skews harder (Fig. 1).
  double power = party == Party::kFirst ? 1.7 : 1.2;
  double lo = 0.25 * bucket;
  return lo + 0.25 * std::pow(u, power);
}

int WorkloadModel::SampleP95Bucket(int avg_bucket, Party party, Rng& rng) const {
  switch (avg_bucket) {
    case 0: {
      const auto& row = party == Party::kFirst ? config_.first_p95_given_low_avg
                                               : config_.third_p95_given_low_avg;
      return static_cast<int>(SampleFrom(row, rng));
    }
    case 1: return static_cast<int>(SampleFrom(kP95GivenAvg1, rng));
    case 2: return static_cast<int>(SampleFrom(kP95GivenAvg2, rng));
    default: return static_cast<int>(SampleFrom(kP95GivenAvg3, rng));
  }
}

SimDuration WorkloadModel::SampleLifetime(int bucket, double sub_pos, bool test_vm,
                                          Rng& rng) const {
  // VMs cluster around their subscription's preferred log-position within
  // the bucket; the jitter keeps individual variety while holding most
  // subscriptions' lifetime CoV under 1 (Section 3.5).
  auto positioned = [&](double lo, double hi) {
    double pos = std::clamp(sub_pos + rng.Normal(0.0, 0.18), 0.0, 1.0);
    return std::exp(std::log(lo) + (std::log(hi) - std::log(lo)) * pos);
  };
  switch (bucket) {
    case 0:
      if (test_vm) return static_cast<SimDuration>(rng.Uniform(20.0, 8.0 * kMinute));
      return static_cast<SimDuration>(positioned(1.0 * kMinute, 15.0 * kMinute));
    case 1:
      return static_cast<SimDuration>(positioned(15.0 * kMinute, 60.0 * kMinute));
    case 2:
      return static_cast<SimDuration>(positioned(1.0 * kHour, 24.0 * kHour));
    default: {
      double days = rng.Pareto(1.0, config_.lifetime_tail_alpha);
      days = std::min(days, config_.lifetime_cap_days);
      return static_cast<SimDuration>(days * kDay);
    }
  }
}

int64_t WorkloadModel::SampleDeploymentVmCount(int bucket, Rng& rng) const {
  switch (bucket) {
    case 0: return 1;
    case 1: {
      double u = rng.NextDouble();
      return 1 + static_cast<int64_t>(std::ceil(9.0 * std::pow(u, 1.6)));
    }
    case 2: return static_cast<int64_t>(std::llround(LogUniform(rng, 11.0, 100.0)));
    default: return static_cast<int64_t>(std::llround(LogUniform(rng, 101.0, 400.0)));
  }
}

VmRecord WorkloadModel::MakeVm(const SubscriptionProfile& sub, uint64_t vm_id,
                               uint64_t deployment_id, int region, SimTime created,
                               Rng& rng) {
  VmRecord vm;
  vm.vm_id = vm_id;
  vm.deployment_id = deployment_id;
  vm.subscription_id = sub.subscription_id;
  vm.region = region;
  vm.party = sub.party;
  vm.tag = sub.tag;
  vm.service = sub.service;

  vm.vm_type = rng.Bernoulli(sub.type_consistency)
                   ? sub.dominant_type
                   : (sub.dominant_type == VmType::kIaas ? VmType::kPaas : VmType::kIaas);
  vm.role = vm.vm_type == VmType::kIaas ? Role::kIaas
                                         : static_cast<Role>(1 + rng.UniformInt(0, 3));
  vm.guest_os = rng.Bernoulli(0.93) ? sub.dominant_os
                                    : (sub.dominant_os == GuestOs::kLinux
                                           ? GuestOs::kWindows
                                           : GuestOs::kLinux);

  bool test_vm = sub.party == Party::kFirst && rng.Bernoulli(config_.first_party_test_frac);

  int size_index = rng.Bernoulli(sub.size_consistency)
                       ? sub.size_index
                       : catalog_.SampleIndex(sub.party, rng);
  if (test_vm) size_index = rng.Bernoulli(0.5) ? 0 : 1;  // A0/A1
  const VmSizeSpec& spec = catalog_.at(size_index);
  vm.cores = spec.cores;
  vm.memory_gb = spec.memory_gb;

  // --- Lifetime ---
  const auto& life_marginal = sub.party == Party::kFirst
                                  ? config_.first_lifetime_marginal
                                  : config_.third_lifetime_marginal;
  int life_bucket = test_vm ? 0
                            : SampleVmBucket(sub.lifetime_bucket, life_marginal,
                                             sub.metric_consistency, rng);
  SimDuration lifetime = SampleLifetime(life_bucket, sub.lifetime_pos, test_vm, rng);
  // Only VMs that actually run >= 3 days can express (and be classified by)
  // diurnal periodicity; interactive-ness is gated on the drawn lifetime
  // rather than distorting the lifetime distribution.
  bool interactive =
      !test_vm && lifetime >= 3 * kDay && rng.Bernoulli(sub.interactive_prob);
  vm.created = created;
  vm.deleted = created + std::max<SimDuration>(lifetime, 20);

  // --- Utilization ---
  const auto& avg_marginal = sub.party == Party::kFirst ? config_.first_avg_util_marginal
                                                        : config_.third_avg_util_marginal;
  int avg_bucket = SampleVmBucket(sub.avg_util_bucket, avg_marginal,
                                  sub.metric_consistency, rng);
  double avg_target = test_vm ? rng.Uniform(0.005, 0.03)
                              : SampleAvgUtil(avg_bucket, sub.party, rng);

  int p95_bucket = rng.Bernoulli(sub.metric_consistency)
                       ? sub.p95_util_bucket
                       : SampleP95Bucket(avg_bucket, sub.party, rng);
  p95_bucket = std::max(p95_bucket, avg_bucket);
  if (test_vm) p95_bucket = 0;
  BucketRange p95_range = UtilizationBucketRange(p95_bucket);
  // Couple the within-bucket position of the P95 target to the average's
  // position so the two utilization metrics correlate strongly across the
  // population (Fig. 8), not just at bucket granularity.
  double avg_pos = std::clamp((avg_target - 0.25 * avg_bucket) / 0.25, 0.0, 1.0);
  double pos = 0.5 * rng.NextDouble() + 0.5 * avg_pos;
  double p95_target = std::max(avg_target + 0.02,
                               p95_range.lo + (p95_range.hi - p95_range.lo) * pos);

  UtilizationParams& up = vm.util;
  up.seed = rng.NextU64();
  if (interactive) {
    double amp = std::clamp(avg_target, 0.12, 0.5);
    up.diurnal_amp = amp;
    up.base = std::max(0.02, avg_target - amp / 2.0);
    up.diurnal_phase_h = rng.Uniform(10.0, 18.0);  // peak in working hours
  } else {
    up.diurnal_amp = 0.0;
    up.base = avg_target;
  }
  up.noise_amp = std::max(0.005, 0.2 * avg_target * (1.1 - sub.metric_consistency) * 4.0);
  double avg_peak = up.base + up.diurnal_amp;
  // Solve for the amplitude that places the per-slot max P95 near the
  // target. The burst term's own 95th percentile is ~0.999 * burst_amp (see
  // UtilizationModel); the 0.97 divisor is a calibration constant that the
  // golden characterization tests pin, not that percentile.
  up.burst_amp = std::clamp((p95_target - avg_peak) / 0.97, 0.01, 1.0);
  // avg_cpu and p95_max_cpu are filled by Generate's summary pass.

  if (vm.lifetime() < 3 * kDay) {
    vm.true_class = WorkloadClass::kUnknown;
  } else {
    vm.true_class = interactive ? WorkloadClass::kInteractive
                                : WorkloadClass::kDelayInsensitive;
  }
  return vm;
}

Trace WorkloadModel::Generate() {
  Rng master(config_.seed);

  std::vector<SubscriptionProfile> subs;
  subs.reserve(static_cast<size_t>(config_.num_subscriptions));
  for (int i = 0; i < config_.num_subscriptions; ++i) {
    subs.push_back(MakeSubscription(static_cast<uint64_t>(i + 1), master));
  }

  std::vector<VmRecord> vms;
  vms.reserve(static_cast<size_t>(config_.target_vm_count) + 1024);
  uint64_t next_vm_id = 1;
  uint64_t next_deployment_id = 1;

  // --- Resident interactive services (long-lived diurnal, Fig. 6) ---
  // These subscriptions deploy their fleet once near the start of the window
  // and churn very little afterwards, which is also why so few interactive
  // VMs show up among newly created (test-month) VMs in Table 4.
  std::vector<size_t> service_subs;
  int64_t resident_target = static_cast<int64_t>(
      std::llround(config_.resident_interactive_vm_frac *
                   static_cast<double>(config_.target_vm_count)));
  if (resident_target > 0) {
    // Few services, each deploying several cohorts across the bootstrap
    // span, so a service's later deployments see its earlier ones in the
    // subscription history.
    int n_services = std::max<int>(1, static_cast<int>(resident_target / 150));
    // Mark a dedicated slice of subscriptions (either party: first-party
    // communication/gaming services and third-party customer-facing apps)
    // as resident services so their history is self-consistent.
    for (size_t i = 0; i < subs.size() && service_subs.size() < static_cast<size_t>(n_services); ++i) {
      subs[i].interactive_prob = 0.95;
      subs[i].lifetime_bucket = 3;
      subs[i].avg_util_bucket = 1;
      subs[i].p95_util_bucket = std::max(subs[i].p95_util_bucket, 2);
      // Customer-facing services are production workloads.
      subs[i].tag = DeploymentTag::kProduction;
      // Bias toward >=2-core sizes (front ends are slightly larger).
      if (catalog_.at(subs[i].size_index).cores < 2) {
        subs[i].size_index = catalog_.IndexOf("A2");
      }
      service_subs.push_back(i);
    }
  }

  // Zipf popularity (tempered, capped) over a random permutation of the
  // non-service subscriptions: a few subscriptions generate most deployments
  // (driving the arrival burstiness of Fig. 7) without letting any single
  // subscription's dominant buckets visibly distort the population marginals.
  {
    std::vector<size_t> ranks;
    ranks.reserve(subs.size());
    for (size_t i = 0; i < subs.size(); ++i) {
      if (subs[i].interactive_prob < 0.9) ranks.push_back(i);
    }
    master.Shuffle(ranks);
    double total = 0.0;
    std::vector<double> raw(ranks.size());
    for (size_t i = 0; i < ranks.size(); ++i) {
      raw[i] = 1.0 / std::pow(static_cast<double>(i + 1), 0.9);
      total += raw[i];
    }
    double cap = config_.popularity_cap * total;
    for (size_t i = 0; i < subs.size(); ++i) subs[i].popularity = 0.0;
    for (size_t i = 0; i < ranks.size(); ++i) {
      SubscriptionProfile& sub = subs[ranks[i]];
      // The cap bounds a subscription's share of *VMs*, not deployments: a
      // subscription whose dominant deployment bucket is large would
      // otherwise dwarf everyone (1% of arrivals x 160-VM deployments is a
      // quarter of the trace) and single-handedly distort the population
      // marginals. Deployment-arrival weight is therefore the capped VM
      // share divided by the subscription's expected deployment size.
      static constexpr double kBucketMeanVms[4] = {1.0, 4.5, 30.0, 160.0};
      double c = sub.metric_consistency;
      double expected_vms =
          c * kBucketMeanVms[sub.deploy_vms_bucket] +
          (1.0 - c) * MeanDeploymentVms(config_.deploy_vms_marginal);
      sub.popularity = std::min(raw[i], cap) / expected_vms;
      // Interactive services deploy occasionally and run for a long time;
      // they contribute few *new* VMs, which is why ~99% of newly created
      // classifiable VMs are delay-insensitive (Table 4) even though
      // interactive VMs hold a large share of core-hours (Fig. 6).
      if (sub.interactive_prob > 0.5) sub.popularity *= 0.3;
    }
  }
  std::vector<double> weights;
  weights.reserve(subs.size());
  for (const auto& s : subs) weights.push_back(s.popularity);
  DiscreteSampler sub_sampler(std::move(weights));

  if (resident_target > 0) {
    int64_t made = 0;
    // Service fleets bootstrap over the first weeks (not one instant), so
    // later service deployments see earlier ones in their subscription
    // history — the signal RC's class model learns from.
    double bootstrap_span = std::min(20.0 * kDay, 0.25 * static_cast<double>(config_.duration));
    for (size_t si = 0; made < resident_target && !service_subs.empty(); ++si) {
      const SubscriptionProfile& sub = subs[service_subs[si % service_subs.size()]];
      SimTime created = static_cast<SimTime>(master.Uniform(0.0, bootstrap_span));
      int region = sub.home_region;
      uint64_t dep = next_deployment_id++;
      int64_t n = std::min<int64_t>(resident_target - made,
                                    master.UniformInt(10, 40));
      for (int64_t k = 0; k < n; ++k) {
        VmRecord vm = MakeVm(sub, next_vm_id++, dep, region,
                             created + master.UniformInt(0, 5 * kMinute), master);
        // Residents span (most of) the window regardless of sampled bucket.
        vm.deleted = vm.created + static_cast<SimDuration>(master.Uniform(
                                      0.7 * static_cast<double>(config_.duration),
                                      1.3 * static_cast<double>(config_.duration)));
        vm.true_class = vm.util.diurnal_amp > 0.05 ? WorkloadClass::kInteractive
                                                   : WorkloadClass::kDelayInsensitive;
        vms.push_back(std::move(vm));
        ++made;
      }
    }
  }

  // --- Churn: deployment arrivals over the window ---
  // Expected VMs per deployment under the realized arrival weights (the
  // popularity normalization above deliberately skews arrivals toward
  // small-deployment subscriptions).
  double mean_vms_per_deploy;
  {
    static constexpr double kBucketMeanVms[4] = {1.0, 4.5, 30.0, 160.0};
    double sum_w = 0.0, sum_we = 0.0;
    for (const auto& sub : subs) {
      if (sub.popularity <= 0.0) continue;
      double c = sub.metric_consistency;
      double e = c * kBucketMeanVms[sub.deploy_vms_bucket] +
                 (1.0 - c) * MeanDeploymentVms(config_.deploy_vms_marginal);
      sum_w += sub.popularity;
      sum_we += sub.popularity * e;
    }
    mean_vms_per_deploy = sum_w > 0.0 ? sum_we / sum_w
                                      : MeanDeploymentVms(config_.deploy_vms_marginal);
  }
  double est_deployments =
      static_cast<double>(config_.target_vm_count - resident_target) /
      std::max(1.0, mean_vms_per_deploy);
  // Average rate factor over a week (numerically), to size the peak gap.
  ArrivalConfig acfg = config_.arrivals;
  {
    ArrivalProcess probe(acfg, 1);
    double sum = 0.0;
    int n = 0;
    for (SimTime t = 0; t < kWeek; t += kHour, ++n) sum += probe.RateFactor(t);
    double avg_rf = sum / n;
    acfg.peak_mean_interarrival_s =
        static_cast<double>(config_.duration) * avg_rf / std::max(1.0, est_deployments);
  }
  ArrivalProcess arrivals(acfg, master.NextU64());

  while (static_cast<int64_t>(vms.size()) < config_.target_vm_count) {
    SimTime t = arrivals.NextArrival();
    if (t >= config_.duration) break;
    const SubscriptionProfile& sub = subs[sub_sampler.Sample(master)];
    int region = master.Bernoulli(0.85)
                     ? sub.home_region
                     : static_cast<int>(master.UniformInt(0, kNumRegions - 1));
    int deploy_bucket = SampleVmBucket(sub.deploy_vms_bucket, config_.deploy_vms_marginal,
                                       sub.metric_consistency, master);
    int64_t n = SampleDeploymentVmCount(deploy_bucket, master);
    uint64_t dep = next_deployment_id++;
    for (int64_t k = 0; k < n; ++k) {
      SimTime created = t + master.UniformInt(0, 5 * kMinute);
      vms.push_back(MakeVm(sub, next_vm_id++, dep, region, created, master));
    }
  }

  // Ground-truth summaries. They draw no random numbers and nothing above
  // reads them, so they are filled after the last draw, from each VM's
  // final lifetime, in fixed chunks across threads: each thread writes only
  // its own VMs, and the result is the same for any thread count.
  ParallelFor(vms.size(), HardwareThreads(), [&vms](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const UtilizationModel::Summary summary = UtilizationModel::Summarize(vms[i]);
      vms[i].avg_cpu = summary.avg_cpu;
      vms[i].p95_max_cpu = summary.p95_max_cpu;
    }
  });

  return Trace(std::move(subs), std::move(vms), config_.duration);
}

}  // namespace rc::trace
