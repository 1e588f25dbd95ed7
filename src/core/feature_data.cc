#include "src/core/feature_data.h"

#include <cmath>

namespace rc::core {

using rc::trace::VmRecord;
using rc::trace::WorkloadClass;

void SubscriptionFeatures::SerializeTo(rc::ml::ByteWriter& w) const {
  w.U64(subscription_id);
  w.U64(static_cast<uint64_t>(vm_count));
  w.U64(static_cast<uint64_t>(deployment_count));
  for (const auto& metric : bucket_frac) {
    for (double f : metric) w.F32(static_cast<float>(f));
  }
  w.F32(static_cast<float>(mean_avg_cpu));
  w.F32(static_cast<float>(mean_p95_cpu));
  w.F32(static_cast<float>(mean_log_lifetime));
  w.F32(static_cast<float>(mean_cores));
  w.F32(static_cast<float>(mean_deploy_vms));
}

SubscriptionFeatures SubscriptionFeatures::DeserializeFrom(rc::ml::ByteReader& r) {
  SubscriptionFeatures f;
  f.subscription_id = r.U64();
  f.vm_count = static_cast<int64_t>(r.U64());
  f.deployment_count = static_cast<int64_t>(r.U64());
  for (auto& metric : f.bucket_frac) {
    for (double& v : metric) v = r.F32();
  }
  f.mean_avg_cpu = r.F32();
  f.mean_p95_cpu = r.F32();
  f.mean_log_lifetime = r.F32();
  f.mean_cores = r.F32();
  f.mean_deploy_vms = r.F32();
  return f;
}

std::vector<uint8_t> SubscriptionFeatures::Serialize() const {
  rc::ml::ByteWriter w;
  SerializeTo(w);
  return w.TakeBytes();
}

SubscriptionFeatures SubscriptionFeatures::Deserialize(const std::vector<uint8_t>& bytes) {
  rc::ml::ByteReader r(bytes);
  return DeserializeFrom(r);
}

SubscriptionFeatures FeatureDataBuilder::Snapshot(uint64_t subscription_id) const {
  auto it = entries_.find(subscription_id);
  if (it != entries_.end()) return it->second.features;
  SubscriptionFeatures empty;
  empty.subscription_id = subscription_id;
  return empty;
}

bool FeatureDataBuilder::Has(uint64_t subscription_id) const {
  return entries_.contains(subscription_id);
}

std::unordered_map<uint64_t, SubscriptionFeatures> FeatureDataBuilder::TakeData() {
  std::unordered_map<uint64_t, SubscriptionFeatures> out;
  out.reserve(entries_.size());
  for (auto& [id, entry] : entries_) out.emplace(id, std::move(entry.features));
  entries_.clear();
  return out;
}

FeatureDataBuilder::Entry& FeatureDataBuilder::EntryFor(uint64_t subscription_id) {
  Entry& entry = entries_[subscription_id];
  entry.features.subscription_id = subscription_id;
  return entry;
}

void FeatureDataBuilder::ObserveUtilization(uint64_t subscription_id, double avg_cpu,
                                            double p95_max_cpu, int cores) {
  Entry& entry = EntryFor(subscription_id);
  Counters& c = entry.counters;
  c.bucket_counts[static_cast<size_t>(Metric::kAvgCpu)]
                 [static_cast<size_t>(UtilizationBucket(avg_cpu))] += 1;
  c.bucket_counts[static_cast<size_t>(Metric::kP95Cpu)]
                 [static_cast<size_t>(UtilizationBucket(p95_max_cpu))] += 1;
  c.util_observed += 1;
  c.sum_avg_cpu += avg_cpu;
  c.sum_p95_cpu += p95_max_cpu;
  c.sum_cores += cores;
  entry.features.vm_count = c.util_observed;
  Recompute(entry);
}

void FeatureDataBuilder::ObserveClass(uint64_t subscription_id,
                                      WorkloadClass workload_class) {
  if (workload_class == WorkloadClass::kUnknown) return;
  Entry& entry = EntryFor(subscription_id);
  Counters& c = entry.counters;
  int cls = workload_class == WorkloadClass::kInteractive ? kClassInteractive
                                                          : kClassDelayInsensitive;
  c.bucket_counts[static_cast<size_t>(Metric::kClass)][static_cast<size_t>(cls)] += 1;
  c.class_observed += 1;
  Recompute(entry);
}

void FeatureDataBuilder::ObserveLifetime(uint64_t subscription_id, SimDuration lifetime) {
  Entry& entry = EntryFor(subscription_id);
  Counters& c = entry.counters;
  c.bucket_counts[static_cast<size_t>(Metric::kLifetime)]
                 [static_cast<size_t>(LifetimeBucket(lifetime))] += 1;
  c.lifetime_observed += 1;
  c.sum_log_lifetime += std::log(std::max<double>(static_cast<double>(lifetime), 1.0));
  Recompute(entry);
}

void FeatureDataBuilder::ObserveVm(const VmRecord& vm, WorkloadClass workload_class) {
  ObserveUtilization(vm.subscription_id, vm.avg_cpu, vm.p95_max_cpu, vm.cores);
  ObserveClass(vm.subscription_id, workload_class);
  ObserveLifetime(vm.subscription_id, vm.lifetime());
}

void FeatureDataBuilder::ObserveDeployment(uint64_t subscription_id, int64_t vms,
                                           int64_t cores) {
  Entry& entry = EntryFor(subscription_id);
  Counters& c = entry.counters;
  c.bucket_counts[static_cast<size_t>(Metric::kDeployVms)]
                 [static_cast<size_t>(DeploymentSizeBucket(vms))] += 1;
  c.bucket_counts[static_cast<size_t>(Metric::kDeployCores)]
                 [static_cast<size_t>(DeploymentSizeBucket(cores))] += 1;
  c.sum_deploy_vms += static_cast<double>(vms);
  entry.features.deployment_count += 1;
  Recompute(entry);
}

void FeatureDataBuilder::Recompute(Entry& entry) {
  const Counters& c = entry.counters;
  SubscriptionFeatures& f = entry.features;
  for (int m = 0; m < kNumMetrics; ++m) {
    Metric metric = kAllMetrics[static_cast<size_t>(m)];
    int64_t denom;
    if (metric == Metric::kDeployVms || metric == Metric::kDeployCores) {
      denom = f.deployment_count;
    } else if (metric == Metric::kClass) {
      denom = c.class_observed;
    } else if (metric == Metric::kLifetime) {
      denom = c.lifetime_observed;
    } else {
      denom = c.util_observed;
    }
    for (int b = 0; b < 4; ++b) {
      f.bucket_frac[static_cast<size_t>(m)][static_cast<size_t>(b)] =
          denom > 0 ? static_cast<double>(
                          c.bucket_counts[static_cast<size_t>(m)][static_cast<size_t>(b)]) /
                          static_cast<double>(denom)
                    : 0.0;
    }
  }
  if (c.util_observed > 0) {
    double n = static_cast<double>(c.util_observed);
    f.mean_avg_cpu = c.sum_avg_cpu / n;
    f.mean_p95_cpu = c.sum_p95_cpu / n;
    f.mean_cores = c.sum_cores / n;
  }
  if (c.lifetime_observed > 0) {
    f.mean_log_lifetime = c.sum_log_lifetime / static_cast<double>(c.lifetime_observed);
  }
  if (f.deployment_count > 0) {
    f.mean_deploy_vms = c.sum_deploy_vms / static_cast<double>(f.deployment_count);
  }
}

}  // namespace rc::core
