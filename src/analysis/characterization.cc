#include "src/analysis/characterization.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "src/common/stats.h"

namespace rc::analysis {

using rc::trace::Party;
using rc::trace::Trace;
using rc::trace::VmRecord;
using rc::trace::VmType;
using rc::trace::WorkloadClass;

const char* ToString(PartyFilter f) {
  switch (f) {
    case PartyFilter::kAll: return "all";
    case PartyFilter::kFirst: return "first-party";
    case PartyFilter::kThird: return "third-party";
  }
  return "?";
}

bool Matches(const VmRecord& vm, PartyFilter filter) {
  switch (filter) {
    case PartyFilter::kAll: return true;
    case PartyFilter::kFirst: return vm.party == Party::kFirst;
    case PartyFilter::kThird: return vm.party == Party::kThird;
  }
  return false;
}

UtilizationCdfs BuildUtilizationCdfs(const Trace& trace, PartyFilter filter) {
  UtilizationCdfs out;
  for (const auto& vm : trace.vms()) {
    if (!Matches(vm, filter)) continue;
    out.avg.Add(vm.avg_cpu);
    out.p95_max.Add(vm.p95_max_cpu);
  }
  out.avg.Finalize();
  out.p95_max.Finalize();
  return out;
}

rc::CategoricalHistogram CoreBreakdown(const Trace& trace, PartyFilter filter) {
  rc::CategoricalHistogram hist;
  for (const auto& vm : trace.vms()) {
    if (!Matches(vm, filter)) continue;
    hist.Add(std::to_string(vm.cores));
  }
  return hist;
}

rc::CategoricalHistogram MemoryBreakdown(const Trace& trace, PartyFilter filter) {
  rc::CategoricalHistogram hist;
  for (const auto& vm : trace.vms()) {
    if (!Matches(vm, filter)) continue;
    std::ostringstream key;
    key << vm.memory_gb;
    hist.Add(key.str());
  }
  return hist;
}

std::vector<DeploymentGroup> GroupDeployments(const Trace& trace) {
  struct Key {
    uint64_t sub;
    int32_t region;
    int64_t day;
    bool operator<(const Key& o) const {
      if (sub != o.sub) return sub < o.sub;
      if (region != o.region) return region < o.region;
      return day < o.day;
    }
  };
  std::map<Key, DeploymentGroup> groups;
  for (const auto& vm : trace.vms()) {
    Key key{vm.subscription_id, vm.region, vm.created / kDay};
    auto [it, inserted] = groups.try_emplace(key);
    DeploymentGroup& g = it->second;
    if (inserted) {
      g.subscription_id = vm.subscription_id;
      g.region = vm.region;
      g.day = key.day;
      g.party = vm.party;
    }
    g.vm_count += 1;
    g.cores += vm.cores;
  }
  std::vector<DeploymentGroup> out;
  out.reserve(groups.size());
  for (auto& [key, g] : groups) out.push_back(g);
  return out;
}

rc::EmpiricalCdf DeploymentSizeCdf(const Trace& trace, PartyFilter filter) {
  rc::EmpiricalCdf cdf;
  for (const auto& g : GroupDeployments(trace)) {
    bool match = filter == PartyFilter::kAll ||
                 (filter == PartyFilter::kFirst && g.party == Party::kFirst) ||
                 (filter == PartyFilter::kThird && g.party == Party::kThird);
    if (match) cdf.Add(static_cast<double>(g.vm_count));
  }
  cdf.Finalize();
  return cdf;
}

rc::EmpiricalCdf LifetimeCdf(const Trace& trace, PartyFilter filter) {
  rc::EmpiricalCdf cdf;
  for (const VmRecord* vm : trace.CompletedVms()) {
    if (!Matches(*vm, filter)) continue;
    cdf.Add(static_cast<double>(vm->lifetime()));
  }
  cdf.Finalize();
  return cdf;
}

ClassCoreHours CoreHoursByClass(const Trace& trace, PartyFilter filter, bool use_fft) {
  ClassCoreHours out;
  for (const auto& vm : trace.vms()) {
    if (!Matches(vm, filter)) continue;
    SimTime end = std::min(vm.deleted, trace.observation_window());
    SimTime begin = std::max<SimTime>(vm.created, 0);
    if (end <= begin) continue;
    double core_hours =
        static_cast<double>(vm.cores) * static_cast<double>(end - begin) / kHour;
    WorkloadClass cls = use_fft ? ClassifyVm(vm) : vm.true_class;
    switch (cls) {
      case WorkloadClass::kDelayInsensitive: out.delay_insensitive += core_hours; break;
      case WorkloadClass::kInteractive: out.interactive += core_hours; break;
      case WorkloadClass::kUnknown: out.unknown += core_hours; break;
    }
  }
  return out;
}

std::vector<int64_t> HourlyArrivals(const Trace& trace, int region, SimTime from,
                                    SimTime to) {
  if (to <= from) return {};
  std::vector<int64_t> bins(static_cast<size_t>((to - from + kHour - 1) / kHour), 0);
  for (const auto& vm : trace.vms()) {
    if (vm.region != region) continue;
    if (vm.created < from || vm.created >= to) continue;
    bins[static_cast<size_t>((vm.created - from) / kHour)] += 1;
  }
  return bins;
}

std::vector<double> SubscriptionCoVs(
    const Trace& trace, const std::function<double(const VmRecord&)>& metric,
    size_t min_vms) {
  std::vector<double> covs;
  for (const auto& sub : trace.subscriptions()) {
    auto vm_indices = trace.VmsOfSubscription(sub.subscription_id);
    if (vm_indices.size() < min_vms) continue;
    rc::OnlineStats stats;
    for (uint32_t idx : vm_indices) stats.Add(metric(trace.vms()[idx]));
    covs.push_back(stats.cov());
  }
  return covs;
}

double FractionBelow(const std::vector<double>& xs, double threshold) {
  if (xs.empty()) return 0.0;
  size_t below = 0;
  for (double x : xs) {
    if (x < threshold) ++below;
  }
  return static_cast<double>(below) / static_cast<double>(xs.size());
}

double SingleTypeSubscriptionFraction(const Trace& trace, size_t min_vms) {
  size_t total = 0, single = 0;
  for (const auto& sub : trace.subscriptions()) {
    auto vm_indices = trace.VmsOfSubscription(sub.subscription_id);
    if (vm_indices.size() < min_vms) continue;
    ++total;
    VmType first_type = trace.vms()[vm_indices[0]].vm_type;
    bool all_same = std::all_of(vm_indices.begin(), vm_indices.end(), [&](uint32_t idx) {
      return trace.vms()[idx].vm_type == first_type;
    });
    if (all_same) ++single;
  }
  return total == 0 ? 0.0 : static_cast<double>(single) / static_cast<double>(total);
}

CorrelationMatrix MetricCorrelations(const Trace& trace, PartyFilter filter) {
  // Deployment size of the VM's (subscription, region, day) group.
  std::unordered_map<uint64_t, int64_t> deploy_size;
  {
    std::vector<DeploymentGroup> groups = GroupDeployments(trace);
    std::map<std::tuple<uint64_t, int32_t, int64_t>, int64_t> sizes;
    for (const auto& g : groups) {
      sizes[{g.subscription_id, g.region, g.day}] = g.vm_count;
    }
    for (const auto& vm : trace.vms()) {
      deploy_size[vm.vm_id] = sizes[{vm.subscription_id, vm.region, vm.created / kDay}];
    }
  }

  // The six numeric metrics correlate over every VM; the class column only
  // exists for VMs that ran long enough to be classified (>= 3 days), so its
  // correlations are computed over that subpopulation, as the paper does.
  std::vector<std::string> names = {"avg util", "p95 util",   "cores", "memory",
                                    "lifetime", "deploy size", "class"};
  constexpr size_t kNumeric = 6;
  std::vector<std::vector<double>> cols(kNumeric);
  std::vector<std::vector<double>> classified(kNumeric + 1);
  for (const auto& vm : trace.vms()) {
    if (!Matches(vm, filter)) continue;
    double values[kNumeric] = {vm.avg_cpu,
                               vm.p95_max_cpu,
                               static_cast<double>(vm.cores),
                               vm.memory_gb,
                               static_cast<double>(vm.lifetime()),
                               static_cast<double>(deploy_size[vm.vm_id])};
    for (size_t c = 0; c < kNumeric; ++c) cols[c].push_back(values[c]);
    if (vm.true_class != WorkloadClass::kUnknown) {
      for (size_t c = 0; c < kNumeric; ++c) classified[c].push_back(values[c]);
      classified[kNumeric].push_back(
          vm.true_class == WorkloadClass::kInteractive ? 2.0 : 1.0);
    }
  }
  CorrelationMatrix numeric = SpearmanMatrix(
      std::vector<std::string>(names.begin(), names.begin() + kNumeric), cols);
  CorrelationMatrix out;
  out.names = names;
  out.rho.assign(names.size() * names.size(), 1.0);
  for (size_t i = 0; i < kNumeric; ++i) {
    for (size_t j = 0; j < kNumeric; ++j) {
      out.rho[i * names.size() + j] = numeric.at(i, j);
    }
  }
  for (size_t i = 0; i < kNumeric; ++i) {
    double r = SpearmanCorrelation(classified[i], classified[kNumeric]);
    out.rho[i * names.size() + kNumeric] = r;
    out.rho[kNumeric * names.size() + i] = r;
  }
  return out;
}

}  // namespace rc::analysis
