#include "src/core/offline_pipeline.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>

#include "src/analysis/periodicity.h"
#include "src/common/faults.h"
#include "src/common/sim_time.h"
#include "src/obs/trace_context.h"

namespace rc::core {

namespace {

// Stage-duration histogram shared by every pipeline stage; one label per
// stage so exposition groups them into a single rc_pipeline family.
rc::obs::Histogram& StageHistogram(rc::obs::MetricsRegistry* metrics, const char* stage) {
  rc::obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : rc::obs::MetricsRegistry::Global();
  return reg.GetHistogram("rc_pipeline_stage_duration_us", {}, {{"stage", stage}},
                          "offline pipeline stage wall time (us)");
}

}  // namespace

using rc::trace::Trace;
using rc::trace::VmRecord;
using rc::trace::WorkloadClass;

namespace {

// The point at which a running VM's behaviour is considered "learned": its
// telemetry summary and (if long-lived) its class are folded into the
// subscription history. Three days matches the classifier's minimum span.
constexpr SimDuration kRepresentativeAfter = 3 * kDay;

enum class ObsKind { kUtilization, kClass, kLifetime, kDeployment };

struct Observation {
  SimTime time = 0;
  ObsKind kind = ObsKind::kUtilization;
  const VmRecord* vm = nullptr;     // utilization / class / lifetime
  uint64_t subscription_id = 0;     // deployment
  int64_t deploy_vms = 0;
  int64_t deploy_cores = 0;
};

struct DeployGroup {
  const VmRecord* first_vm = nullptr;
  int64_t vms = 0;
  int64_t cores = 0;
};

// Deployment groups under the paper's redefinition (subscription x region x
// day), keyed for chronological emission by their first VM.
std::map<std::tuple<uint64_t, int32_t, int64_t>, DeployGroup> BuildDeployGroups(
    const Trace& trace) {
  std::map<std::tuple<uint64_t, int32_t, int64_t>, DeployGroup> groups;
  for (const auto& vm : trace.vms()) {
    auto key = std::make_tuple(vm.subscription_id, vm.region, vm.created / kDay);
    DeployGroup& g = groups[key];
    if (g.first_vm == nullptr || vm.created < g.first_vm->created) g.first_vm = &vm;
    g.vms += 1;
    g.cores += vm.cores;
  }
  return groups;
}

class ClassLabeler {
 public:
  ClassLabeler(bool use_fft) : use_fft_(use_fft) {}

  WorkloadClass Label(const VmRecord& vm) {
    if (!use_fft_) return vm.true_class;
    auto [it, inserted] = cache_.try_emplace(vm.vm_id, WorkloadClass::kUnknown);
    if (inserted) it->second = rc::analysis::ClassifyVm(vm);
    return it->second;
  }

 private:
  bool use_fft_;
  std::unordered_map<uint64_t, WorkloadClass> cache_;
};

std::vector<Observation> BuildObservations(const Trace& trace) {
  std::vector<Observation> obs;
  obs.reserve(trace.vms().size() * 3);
  for (const auto& vm : trace.vms()) {
    Observation util;
    util.time = std::min(vm.deleted, vm.created + kRepresentativeAfter);
    util.kind = ObsKind::kUtilization;
    util.vm = &vm;
    obs.push_back(util);
    if (vm.lifetime() >= kRepresentativeAfter) {
      Observation cls = util;
      cls.time = vm.created + kRepresentativeAfter;
      cls.kind = ObsKind::kClass;
      obs.push_back(cls);
    }
    Observation life;
    life.time = vm.deleted;
    life.kind = ObsKind::kLifetime;
    life.vm = &vm;
    obs.push_back(life);
  }
  for (const auto& [key, group] : BuildDeployGroups(trace)) {
    Observation dep;
    dep.time = (std::get<2>(key) + 1) * kDay;  // end of the deployment day
    dep.kind = ObsKind::kDeployment;
    dep.subscription_id = std::get<0>(key);
    dep.deploy_vms = group.vms;
    dep.deploy_cores = group.cores;
    obs.push_back(dep);
  }
  std::stable_sort(obs.begin(), obs.end(),
                   [](const Observation& a, const Observation& b) { return a.time < b.time; });
  return obs;
}

void Apply(const Observation& o, FeatureDataBuilder& builder, ClassLabeler& labeler) {
  switch (o.kind) {
    case ObsKind::kUtilization:
      builder.ObserveUtilization(o.vm->subscription_id, o.vm->avg_cpu, o.vm->p95_max_cpu,
                                 o.vm->cores);
      break;
    case ObsKind::kClass:
      builder.ObserveClass(o.vm->subscription_id, labeler.Label(*o.vm));
      break;
    case ObsKind::kLifetime:
      builder.ObserveLifetime(o.vm->subscription_id, o.vm->lifetime());
      break;
    case ObsKind::kDeployment:
      builder.ObserveDeployment(o.subscription_id, o.deploy_vms, o.deploy_cores);
      break;
  }
}

// The lifetime bucket is determinable once the VM has terminated inside the
// window or has provably crossed the 24h (top bucket) boundary.
bool LifetimeLabelKnown(const VmRecord& vm, SimTime window_end) {
  return vm.deleted <= window_end || (window_end - vm.created) > 24 * kHour;
}

}  // namespace

bool OfflinePipeline::UsesRandomForest(Metric metric) {
  return metric == Metric::kAvgCpu || metric == Metric::kP95Cpu;
}

FeatureEncoding OfflinePipeline::EncodingFor(Metric metric) {
  return UsesRandomForest(metric) ? FeatureEncoding::kExpanded : FeatureEncoding::kCompact;
}

std::vector<LabeledExample> OfflinePipeline::BuildExamples(const Trace& trace,
                                                           Metric metric, SimTime from,
                                                           SimTime to, bool use_fft_labels) {
  static const rc::trace::VmSizeCatalog catalog;
  std::vector<Observation> obs = BuildObservations(trace);
  FeatureDataBuilder builder;
  ClassLabeler labeler(use_fft_labels);
  std::vector<LabeledExample> out;

  const bool deployment_metric =
      metric == Metric::kDeployVms || metric == Metric::kDeployCores;

  // Emission points, chronological.
  struct Emission {
    SimTime time;
    const VmRecord* vm;
    int64_t deploy_vms = 0;
    int64_t deploy_cores = 0;
  };
  std::vector<Emission> emissions;
  if (deployment_metric) {
    for (const auto& [key, group] : BuildDeployGroups(trace)) {
      emissions.push_back(Emission{group.first_vm->created, group.first_vm, group.vms,
                                   group.cores});
    }
    std::sort(emissions.begin(), emissions.end(),
              [](const Emission& a, const Emission& b) { return a.time < b.time; });
  } else {
    for (const auto& vm : trace.vms()) emissions.push_back(Emission{vm.created, &vm});
  }

  size_t next_obs = 0;
  SimTime window_end = trace.observation_window();
  for (const Emission& e : emissions) {
    if (e.time >= to) break;
    while (next_obs < obs.size() && obs[next_obs].time <= e.time) {
      Apply(obs[next_obs], builder, labeler);
      ++next_obs;
    }
    if (e.time < from) continue;

    const VmRecord& vm = *e.vm;
    int label = 0;
    switch (metric) {
      case Metric::kAvgCpu:
        label = UtilizationBucket(vm.avg_cpu);
        break;
      case Metric::kP95Cpu:
        label = UtilizationBucket(vm.p95_max_cpu);
        break;
      case Metric::kLifetime:
        if (!LifetimeLabelKnown(vm, window_end)) continue;
        label = LifetimeBucket(vm.lifetime());
        break;
      case Metric::kClass: {
        if (vm.lifetime() < kRepresentativeAfter ||
            vm.created + kRepresentativeAfter > window_end) {
          continue;  // class unobservable within the window
        }
        WorkloadClass cls = labeler.Label(vm);
        if (cls == WorkloadClass::kUnknown) continue;
        label = cls == WorkloadClass::kInteractive ? kClassInteractive
                                                   : kClassDelayInsensitive;
        break;
      }
      case Metric::kDeployVms:
        label = DeploymentSizeBucket(e.deploy_vms);
        break;
      case Metric::kDeployCores:
        label = DeploymentSizeBucket(e.deploy_cores);
        break;
    }
    LabeledExample example;
    example.inputs = InputsFromVm(vm, catalog);
    example.history = builder.Snapshot(vm.subscription_id);
    example.label = label;
    out.push_back(std::move(example));
  }
  return out;
}

std::unordered_map<uint64_t, SubscriptionFeatures> OfflinePipeline::BuildFeatureSnapshot(
    const Trace& trace, SimTime until, bool use_fft_labels) {
  std::vector<Observation> obs = BuildObservations(trace);
  FeatureDataBuilder builder;
  ClassLabeler labeler(use_fft_labels);
  for (const Observation& o : obs) {
    if (o.time > until) break;
    Apply(o, builder, labeler);
  }
  return builder.TakeData();
}

rc::ml::Dataset OfflinePipeline::ToDataset(const std::vector<LabeledExample>& examples,
                                           const Featurizer& featurizer) {
  rc::ml::Dataset data(featurizer.feature_names());
  data.Reserve(examples.size());
  std::vector<double> row(featurizer.num_features());
  for (const auto& example : examples) {
    featurizer.EncodeTo(example.inputs, example.history, row);
    data.AddRow(row, example.label);
  }
  return data;
}

TrainedModels OfflinePipeline::Run(const Trace& trace) const {
  rc::obs::Histogram& build_hist = StageHistogram(config_.metrics, "build_examples");
  rc::obs::Histogram& train_hist = StageHistogram(config_.metrics, "train");
  TrainedModels trained;
  for (Metric metric : kAllMetrics) {
    std::vector<LabeledExample> examples;
    {
      rc::obs::ScopedTimer timer(&build_hist);
      examples = BuildExamples(trace, metric, config_.train_begin, config_.train_end,
                               config_.use_fft_labels);
    }
    if (examples.empty()) continue;
    rc::obs::ScopedTimer train_timer(&train_hist);
    Featurizer featurizer(metric, EncodingFor(metric));
    rc::ml::Dataset data = ToDataset(examples, featurizer);
    // Guarantee full label arity even if a rare bucket is absent from the
    // window: pad with a single neutral-feature row per missing class.
    int expected = NumBuckets(metric);
    if (data.NumClasses() < expected) {
      std::vector<double> zeros(featurizer.num_features(), 0.0);
      for (int c = data.NumClasses(); c < expected; ++c) data.AddRow(zeros, c);
    }

    std::unique_ptr<rc::ml::Classifier> model;
    if (UsesRandomForest(metric)) {
      rc::ml::RandomForestConfig cfg = config_.rf;
      cfg.seed = config_.seed + static_cast<uint64_t>(metric);
      model = std::make_unique<rc::ml::RandomForest>(rc::ml::RandomForest::Fit(data, cfg));
    } else {
      rc::ml::GbtConfig cfg = config_.gbt;
      cfg.seed = config_.seed + static_cast<uint64_t>(metric);
      if (metric == Metric::kClass) {
        // Recall-first for the rare interactive class (paper Section 6.1:
        // predicting interactive VMs as delay-insensitive is the costly
        // mistake, the reverse is acceptable).
        cfg.class_weights = {1.0, 25.0};
      }
      model = std::make_unique<rc::ml::GradientBoostedTrees>(
          rc::ml::GradientBoostedTrees::Fit(data, cfg));
    }

    ModelSpec spec;
    spec.name = MetricModelName(metric);
    spec.metric = metric;
    spec.encoding = EncodingFor(metric);
    spec.model_family = model->type_name();
    spec.num_features = static_cast<uint32_t>(featurizer.num_features());
    spec.version = 1;
    trained.specs[spec.name] = spec;
    trained.models[spec.name] = std::move(model);
  }
  {
    rc::obs::ScopedTimer timer(&StageHistogram(config_.metrics, "feature_snapshot"));
    trained.feature_data =
        BuildFeatureSnapshot(trace, config_.train_end, config_.use_fft_labels);
  }
  return trained;
}

size_t OfflinePipeline::Publish(const TrainedModels& trained, rc::store::KvStore& store,
                                rc::obs::MetricsRegistry* metrics) {
  rc::obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : rc::obs::MetricsRegistry::Global();
  rc::obs::Counter& records =
      reg.GetCounter("rc_pipeline_published_records", {}, "records durably published");
  rc::obs::Counter& failures = reg.GetCounter(
      "rc_pipeline_publish_failures", {}, "records dropped after exhausting retries");
  rc::obs::TraceSpan span("pipeline/publish");
  rc::obs::ScopedTimer timer(&StageHistogram(metrics, "publish"));
  // Transient publish failures (outage blips, injected faults) are retried;
  // a record that still fails after kAttempts is skipped, not fatal — the
  // next pipeline run republishes everything anyway.
  constexpr int kAttempts = 3;
  auto put = [&](const std::string& key, const std::vector<uint8_t>& bytes) -> bool {
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      if (rc::faults::InjectError("pipeline/publish")) continue;
      if (store.Put(key, bytes) != 0) {
        records.Increment();
        return true;
      }
    }
    failures.Increment();
    return false;
  };
  size_t published = 0;
  for (const auto& [name, spec] : trained.specs) {
    published += put(SpecKey(name), spec.Serialize()) ? 1 : 0;
  }
  for (const auto& [name, model] : trained.models) {
    published += put(ModelKey(name), model->SerializeTagged()) ? 1 : 0;
  }
  for (const auto& [sub_id, features] : trained.feature_data) {
    published += put(FeatureKey(sub_id), features.Serialize()) ? 1 : 0;
  }
  return published;
}

}  // namespace rc::core
