#include "src/core/featurizer.h"

#include <cmath>
#include <stdexcept>

#include "src/common/sim_time.h"

namespace rc::core {

namespace {

const char* kMetricShort[] = {"avg", "p95", "dvms", "dcores", "life", "class"};

// History blocks included in the compact encoding, per metric.
std::vector<Metric> CompactHistoryMetrics(Metric metric) {
  switch (metric) {
    case Metric::kAvgCpu:
    case Metric::kP95Cpu:
      return {Metric::kAvgCpu, Metric::kP95Cpu};
    case Metric::kDeployVms:
    case Metric::kDeployCores:
      return {Metric::kDeployVms, Metric::kDeployCores, Metric::kLifetime};
    case Metric::kLifetime:
      return {Metric::kLifetime, Metric::kAvgCpu, Metric::kP95Cpu, Metric::kClass};
    case Metric::kClass:
      return {Metric::kClass, Metric::kLifetime, Metric::kAvgCpu, Metric::kP95Cpu};
  }
  return {};
}

}  // namespace

Featurizer::Featurizer(Metric metric, FeatureEncoding encoding)
    : metric_(metric), encoding_(encoding) {
  BuildNames();
}

void Featurizer::BuildNames() {
  names_.clear();
  auto add = [&](const std::string& n) { names_.push_back(n); };

  // Shared numeric block.
  add("cores");
  add("memory_gb");
  add("log_vm_count");
  add("log_deployment_count");

  if (encoding_ == FeatureEncoding::kExpanded) {
    add("mean_avg_cpu");
    add("mean_p95_cpu");
    add("mean_log_lifetime");
    add("mean_cores");
    add("mean_deploy_vms");
    // Full history block: every metric's bucket fractions.
    for (int m = 0; m < kNumMetrics; ++m) {
      for (int b = 0; b < 4; ++b) {
        add(std::string("hist_") + kMetricShort[m] + "_b" + std::to_string(b));
      }
    }
    // One-hot categoricals.
    for (int i = 0; i < 2; ++i) add("vm_type_" + std::to_string(i));
    for (int i = 0; i < 2; ++i) add("os_" + std::to_string(i));
    for (int i = 0; i < kNumRoles; ++i) add("role_" + std::to_string(i));
    for (int i = 0; i < kNumSizes; ++i) add("size_" + std::to_string(i));
    for (int i = 0; i < kNumRegions; ++i) add("region_" + std::to_string(i));
    for (int i = 0; i <= kNumServices; ++i) add("service_" + std::to_string(i));
    for (int i = 0; i < 24; ++i) add("hour_" + std::to_string(i));
    for (int i = 0; i < 7; ++i) add("dow_" + std::to_string(i));
  } else {
    // Integer-coded categoricals.
    add("vm_type");
    add("os");
    add("role");
    add("size_index");
    add("region");
    add("service_id");
    add("deploy_hour");
    add("deploy_dow");
    // Metric-relevant history only.
    for (Metric m : CompactHistoryMetrics(metric_)) {
      int count = NumBuckets(m);
      for (int b = 0; b < count; ++b) {
        add(std::string("hist_") + kMetricShort[static_cast<int>(m)] + "_b" +
            std::to_string(b));
      }
    }
    switch (metric_) {
      case Metric::kAvgCpu:
      case Metric::kP95Cpu:
        add("mean_avg_cpu");
        add("mean_p95_cpu");
        break;
      case Metric::kDeployVms:
      case Metric::kDeployCores:
        add("mean_deploy_vms");
        add("mean_cores");
        break;
      case Metric::kLifetime:
        add("mean_log_lifetime");
        add("mean_avg_cpu");
        break;
      case Metric::kClass:
        add("mean_log_lifetime");
        add("mean_avg_cpu");
        add("mean_p95_cpu");
        break;
    }
  }
}

void Featurizer::EncodeTo(const ClientInputs& inputs, const SubscriptionFeatures& history,
                          std::span<double> out) const {
  if (out.size() != num_features()) {
    throw std::invalid_argument("Featurizer::EncodeTo: wrong output size");
  }
  size_t i = 0;
  auto put = [&](double v) { out[i++] = v; };
  auto one_hot = [&](int value, int cardinality) {
    for (int c = 0; c < cardinality; ++c) put(value == c ? 1.0 : 0.0);
  };

  put(inputs.cores);
  put(inputs.memory_gb);
  put(std::log1p(static_cast<double>(history.vm_count)));
  put(std::log1p(static_cast<double>(history.deployment_count)));

  if (encoding_ == FeatureEncoding::kExpanded) {
    put(history.mean_avg_cpu);
    put(history.mean_p95_cpu);
    put(history.mean_log_lifetime);
    put(history.mean_cores);
    put(history.mean_deploy_vms);
    for (int m = 0; m < kNumMetrics; ++m) {
      for (int b = 0; b < 4; ++b) {
        put(history.bucket_frac[static_cast<size_t>(m)][static_cast<size_t>(b)]);
      }
    }
    one_hot(inputs.vm_type, 2);
    one_hot(inputs.guest_os, 2);
    one_hot(inputs.role, kNumRoles);
    one_hot(inputs.size_index, kNumSizes);
    one_hot(inputs.region, kNumRegions);
    one_hot(inputs.service_id, kNumServices + 1);
    one_hot(inputs.deploy_hour, 24);
    one_hot(inputs.deploy_dow, 7);
  } else {
    put(inputs.vm_type);
    put(inputs.guest_os);
    put(inputs.role);
    put(inputs.size_index);
    put(inputs.region);
    put(inputs.service_id);
    put(inputs.deploy_hour);
    put(inputs.deploy_dow);
    for (Metric m : CompactHistoryMetrics(metric_)) {
      int count = NumBuckets(m);
      for (int b = 0; b < count; ++b) {
        put(history.bucket_frac[static_cast<size_t>(m)][static_cast<size_t>(b)]);
      }
    }
    switch (metric_) {
      case Metric::kAvgCpu:
      case Metric::kP95Cpu:
        put(history.mean_avg_cpu);
        put(history.mean_p95_cpu);
        break;
      case Metric::kDeployVms:
      case Metric::kDeployCores:
        put(history.mean_deploy_vms);
        put(history.mean_cores);
        break;
      case Metric::kLifetime:
        put(history.mean_log_lifetime);
        put(history.mean_avg_cpu);
        break;
      case Metric::kClass:
        put(history.mean_log_lifetime);
        put(history.mean_avg_cpu);
        put(history.mean_p95_cpu);
        break;
    }
  }
  if (i != out.size()) {
    throw std::logic_error("Featurizer::EncodeTo: layout mismatch");
  }
}

ClientInputs InputsFromVm(const rc::trace::VmRecord& vm,
                          const rc::trace::VmSizeCatalog& catalog) {
  ClientInputs in;
  in.subscription_id = vm.subscription_id;
  in.vm_type = static_cast<int>(vm.vm_type);
  in.guest_os = static_cast<int>(vm.guest_os);
  in.role = static_cast<int>(vm.role);
  in.cores = vm.cores;
  in.memory_gb = vm.memory_gb;
  in.size_index = 0;
  for (int s = 0; s < catalog.size_count(); ++s) {
    if (catalog.at(s).cores == vm.cores && catalog.at(s).memory_gb == vm.memory_gb) {
      in.size_index = s;
      break;
    }
  }
  in.region = vm.region;
  in.deploy_hour = HourOfDay(vm.created);
  in.deploy_dow = DayOfWeek(vm.created);
  in.service_id = vm.service;
  return in;
}

}  // namespace rc::core
