#include "src/core/offline_pipeline.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "src/analysis/periodicity.h"
#include "src/common/faults.h"
#include "src/common/hashing.h"
#include "src/common/sim_time.h"
#include "src/obs/trace_context.h"

namespace rc::core {

using rc::trace::Trace;
using rc::trace::VmRecord;
using rc::trace::WorkloadClass;

namespace {

// The point at which a running VM's behaviour is considered "learned": its
// telemetry summary and (if long-lived) its class are folded into the
// subscription history. Three days matches the classifier's minimum span.
constexpr SimDuration kRepresentativeAfter = 3 * kDay;

enum class ObsKind : uint32_t { kUtilization, kClass, kLifetime, kDeployment };

// One scheduled observation. `index` is the VM's position in trace.vms(),
// or for kDeployment the group's position in ObservationStream::groups.
struct Observation {
  SimTime time = 0;
  uint32_t index = 0;
  ObsKind kind = ObsKind::kUtilization;
};
static_assert(sizeof(Observation) == 16);

// A deployment group under the paper's redefinition (subscription x region x
// day), emitted chronologically by its first VM.
struct DeployGroup {
  uint64_t subscription_id = 0;
  int64_t day = 0;
  int32_t region = 0;
  uint32_t first_vm = 0;  // index into trace.vms() of its earliest VM
  int64_t vms = 0;
  int64_t cores = 0;
};

// Groups of the VMs whose day starts at or before `last` (every VM of such a
// day, even one created after `last`, so no group is cut short), in
// (subscription, region, day) order.
std::vector<DeployGroup> BuildDeployGroups(const Trace& trace, SimTime last) {
  using Key = std::tuple<uint64_t, int32_t, int64_t>;  // (subscription, region, day)
  struct KeyHash {
    size_t operator()(const Key& key) const {
      const auto [sub, region, day] = key;
      return HashCombine(HashCombine(HashU64(sub), static_cast<uint64_t>(region)),
                         static_cast<uint64_t>(day));
    }
  };
  std::unordered_map<Key, uint32_t, KeyHash> index;
  std::vector<DeployGroup> groups;
  const std::vector<VmRecord>& vms = trace.vms();
  for (size_t i = 0; i < vms.size(); ++i) {
    const VmRecord& vm = vms[i];
    const int64_t day = vm.created / kDay;
    if (day * kDay > last) break;  // trace order is creation order
    auto [it, inserted] = index.try_emplace(Key{vm.subscription_id, vm.region, day},
                                            static_cast<uint32_t>(groups.size()));
    if (inserted) {
      groups.push_back(DeployGroup{vm.subscription_id, day, vm.region, static_cast<uint32_t>(i)});
    }
    DeployGroup& g = groups[it->second];
    g.vms += 1;
    g.cores += vm.cores;
  }
  std::sort(groups.begin(), groups.end(), [](const DeployGroup& a, const DeployGroup& b) {
    return std::tie(a.subscription_id, a.region, a.day) <
           std::tie(b.subscription_id, b.region, b.day);
  });
  return groups;
}

// Every observation made at or before `last`, in time order; at equal times
// the VM observations in trace order (utilization, class, lifetime per VM),
// then the deployment groups in (subscription, region, day) order.
struct ObservationStream {
  std::vector<Observation> obs;
  std::vector<DeployGroup> groups;
};

ObservationStream BuildObservations(const Trace& trace, SimTime last) {
  const std::vector<VmRecord>& vms = trace.vms();
  if (vms.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("OfflinePipeline: trace too large for 32-bit VM indices");
  }
  ObservationStream stream;
  stream.groups = BuildDeployGroups(trace, last);
  // Every observation of a VM lands at or after its creation.
  const size_t end = static_cast<size_t>(
      std::partition_point(vms.begin(), vms.end(),
                           [last](const VmRecord& vm) { return vm.created <= last; }) -
      vms.begin());
  std::vector<Observation>& obs = stream.obs;
  obs.reserve(end * 3 + stream.groups.size());
  for (size_t i = 0; i < end; ++i) {
    const VmRecord& vm = vms[i];
    const auto index = static_cast<uint32_t>(i);
    const SimTime learned = vm.created + kRepresentativeAfter;
    const SimTime util = std::min(vm.deleted, learned);
    if (util <= last) obs.push_back({util, index, ObsKind::kUtilization});
    if (vm.lifetime() >= kRepresentativeAfter && learned <= last) {
      obs.push_back({learned, index, ObsKind::kClass});
    }
    if (vm.deleted <= last) obs.push_back({vm.deleted, index, ObsKind::kLifetime});
  }
  for (size_t g = 0; g < stream.groups.size(); ++g) {
    const SimTime day_end = (stream.groups[g].day + 1) * kDay;
    if (day_end <= last) obs.push_back({day_end, static_cast<uint32_t>(g), ObsKind::kDeployment});
  }
  std::stable_sort(obs.begin(), obs.end(),
                   [](const Observation& a, const Observation& b) { return a.time < b.time; });
  return stream;
}

// Class labels by VM index, each computed at most once per labeler.
class ClassLabeler {
 public:
  ClassLabeler(const Trace& trace, bool use_fft) : vms_(trace.vms()), use_fft_(use_fft) {
    if (use_fft_) cache_.resize(vms_.size());
  }

  WorkloadClass Label(uint32_t index) {
    const VmRecord& vm = vms_[index];
    if (!use_fft_) return vm.true_class;
    std::optional<WorkloadClass>& cached = cache_[index];
    if (!cached) cached = rc::analysis::ClassifyVm(vm);
    return *cached;
  }

 private:
  const std::vector<VmRecord>& vms_;
  bool use_fft_;
  std::vector<std::optional<WorkloadClass>> cache_;
};

void Apply(const Observation& o, const Trace& trace, const std::vector<DeployGroup>& groups,
           FeatureDataBuilder& builder, ClassLabeler& labeler) {
  const std::vector<VmRecord>& vms = trace.vms();
  switch (o.kind) {
    case ObsKind::kUtilization: {
      const VmRecord& vm = vms[o.index];
      builder.ObserveUtilization(vm.subscription_id, vm.avg_cpu, vm.p95_max_cpu, vm.cores);
      break;
    }
    case ObsKind::kClass:
      builder.ObserveClass(vms[o.index].subscription_id, labeler.Label(o.index));
      break;
    case ObsKind::kLifetime:
      builder.ObserveLifetime(vms[o.index].subscription_id, vms[o.index].lifetime());
      break;
    case ObsKind::kDeployment: {
      const DeployGroup& g = groups[o.index];
      builder.ObserveDeployment(g.subscription_id, g.vms, g.cores);
      break;
    }
  }
}

// The lifetime bucket is determinable once the VM has terminated inside the
// window or has provably crossed the 24h (top bucket) boundary.
bool LifetimeLabelKnown(const VmRecord& vm, SimTime window_end) {
  return vm.deleted <= window_end || (window_end - vm.created) > 24 * kHour;
}

bool IsDeploymentMetric(Metric metric) {
  return metric == Metric::kDeployVms || metric == Metric::kDeployCores;
}

// A deployment-metric example point: a group, at its first VM's creation.
struct Emission {
  SimTime time;
  uint32_t vm;
  int64_t deploy_vms;
  int64_t deploy_cores;
};

// Every deployment group of the trace, chronological. The list is built from
// all groups, not a window of them: std::sort is not stable, and a shorter
// input could reorder groups that share a creation time.
std::vector<Emission> DeploymentEmissions(const Trace& trace) {
  std::vector<Emission> emissions;
  for (const DeployGroup& g : BuildDeployGroups(trace, std::numeric_limits<SimTime>::max())) {
    emissions.push_back(Emission{trace.vms()[g.first_vm].created, g.first_vm, g.vms, g.cores});
  }
  std::sort(emissions.begin(), emissions.end(),
            [](const Emission& a, const Emission& b) { return a.time < b.time; });
  return emissions;
}

// Examples for `metric` over [from, to), replaying `stream` (which must
// cover every observation before `to`). Deployment metrics read their
// points from `deploy_emissions`; the others emit one per VM.
std::vector<LabeledExample> ExamplesFrom(const Trace& trace, const ObservationStream& stream,
                                         const std::vector<Emission>& deploy_emissions,
                                         ClassLabeler& labeler, Metric metric, SimTime from,
                                         SimTime to) {
  static const rc::trace::VmSizeCatalog catalog;
  const std::vector<VmRecord>& vms = trace.vms();
  const bool deployment_metric = IsDeploymentMetric(metric);
  auto created_before = [&](SimTime t) {
    return static_cast<size_t>(
        std::partition_point(vms.begin(), vms.end(),
                             [t](const VmRecord& vm) { return vm.created < t; }) -
        vms.begin());
  };
  auto emitted_before = [&](SimTime t) {
    return static_cast<size_t>(
        std::partition_point(deploy_emissions.begin(), deploy_emissions.end(),
                             [t](const Emission& e) { return e.time < t; }) -
        deploy_emissions.begin());
  };
  const size_t first = deployment_metric ? emitted_before(from) : created_before(from);
  const size_t end = deployment_metric ? emitted_before(to) : created_before(to);

  FeatureDataBuilder builder;
  std::vector<LabeledExample> out;
  out.reserve(end > first ? end - first : 0);
  size_t next_obs = 0;
  const SimTime window_end = trace.observation_window();
  for (size_t i = 0; i < end; ++i) {
    const Emission e = deployment_metric
                           ? deploy_emissions[i]
                           : Emission{vms[i].created, static_cast<uint32_t>(i), 0, 0};
    while (next_obs < stream.obs.size() && stream.obs[next_obs].time <= e.time) {
      Apply(stream.obs[next_obs], trace, stream.groups, builder, labeler);
      ++next_obs;
    }
    if (i < first) continue;

    const VmRecord& vm = vms[e.vm];
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
        WorkloadClass cls = labeler.Label(e.vm);
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
    LabeledExample& example = out.emplace_back();
    example.inputs = InputsFromVm(vm, catalog);
    example.history = builder.Snapshot(vm.subscription_id);
    example.label = label;
  }
  return out;
}

std::unordered_map<uint64_t, SubscriptionFeatures> SnapshotFrom(const Trace& trace,
                                                                const ObservationStream& stream,
                                                                ClassLabeler& labeler,
                                                                SimTime until) {
  FeatureDataBuilder builder;
  for (const Observation& o : stream.obs) {
    if (o.time > until) break;
    Apply(o, trace, stream.groups, builder, labeler);
  }
  return builder.TakeData();
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
                                                           SimTime to, bool fft_labels) {
  const ObservationStream stream = BuildObservations(trace, to - 1);
  ClassLabeler labeler(trace, fft_labels);
  const std::vector<Emission> deploy_emissions =
      IsDeploymentMetric(metric) ? DeploymentEmissions(trace) : std::vector<Emission>{};
  return ExamplesFrom(trace, stream, deploy_emissions, labeler, metric, from, to);
}

std::unordered_map<uint64_t, SubscriptionFeatures> OfflinePipeline::BuildFeatureSnapshot(
    const Trace& trace, SimTime until, bool fft_labels) {
  ClassLabeler labeler(trace, fft_labels);
  return SnapshotFrom(trace, BuildObservations(trace, until), labeler, until);
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

rc::obs::Histogram& OfflinePipeline::StageHistogram(rc::obs::MetricsRegistry* metrics,
                                                    const char* stage, const char* model) {
  rc::obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : rc::obs::MetricsRegistry::Global();
  rc::obs::Labels labels{{"stage", stage}};
  if (model != nullptr) labels.emplace_back("model", model);
  return reg.GetHistogram("rc_pipeline_stage_duration_us", std::move(labels),
                          "offline pipeline stage wall time (us)");
}

TrainedModels OfflinePipeline::Run(const Trace& trace) const {
  rc::obs::Histogram& build_hist = StageHistogram(config_.metrics, "build_examples");
  // One stream and one labeler serve all six metrics and the snapshot.
  ObservationStream stream;
  {
    rc::obs::TraceSpan span("pipeline/observations",
                            &StageHistogram(config_.metrics, "observations"));
    stream = BuildObservations(trace, config_.train_end);
  }
  ClassLabeler labeler(trace, /*use_fft=*/true);
  std::vector<Emission> deploy_emissions;  // built for the first deployment metric

  // A metric's training matrix, or nothing when its window has no examples.
  // Built on the calling thread only: the labeler's cache is not thread-safe.
  auto build_dataset = [&](Metric metric) -> std::optional<rc::ml::Dataset> {
    rc::obs::TraceSpan span("pipeline/build_examples", &build_hist);
    if (IsDeploymentMetric(metric) && deploy_emissions.empty()) {
      deploy_emissions = DeploymentEmissions(trace);
    }
    const std::vector<LabeledExample> examples = ExamplesFrom(
        trace, stream, deploy_emissions, labeler, metric, config_.train_begin, config_.train_end);
    if (examples.empty()) return std::nullopt;
    Featurizer featurizer(metric, EncodingFor(metric));
    rc::ml::Dataset data = ToDataset(examples, featurizer);
    // Guarantee full label arity even if a rare bucket is absent from the
    // window: pad with a single neutral-feature row per missing class.
    int expected = NumBuckets(metric);
    if (data.NumClasses() < expected) {
      std::vector<double> zeros(featurizer.num_features(), 0.0);
      for (int c = data.NumClasses(); c < expected; ++c) data.AddRow(zeros, c);
    }
    return data;
  };

  // Fits `metric`'s model with its per-metric seed. Each fit is parallel
  // inside: a forest over its trees, a multiclass boosted fit over each
  // round's class trees.
  auto fit = [this](Metric metric,
                    const rc::ml::Dataset& data) -> std::unique_ptr<rc::ml::Classifier> {
    rc::obs::TraceSpan span("pipeline/train",
                            &StageHistogram(config_.metrics, "train", MetricModelName(metric)));
    const uint64_t seed = kSeed + static_cast<uint64_t>(metric);
    if (UsesRandomForest(metric)) {
      rc::ml::RandomForestConfig cfg = config_.rf;
      cfg.seed = seed;
      return std::make_unique<rc::ml::RandomForest>(rc::ml::RandomForest::Fit(data, cfg));
    }
    rc::ml::GbtConfig cfg = config_.gbt;
    cfg.seed = seed;
    if (metric == Metric::kClass) {
      // Recall-first for the rare interactive class (paper Section 6.1:
      // predicting interactive VMs as delay-insensitive is the costly
      // mistake, the reverse is acceptable).
      cfg.class_weights = {1.0, 25.0};
    }
    return std::make_unique<rc::ml::GradientBoostedTrees>(
        rc::ml::GradientBoostedTrees::Fit(data, cfg));
  };

  // One model at a time: its matrix is built, fitted and freed before the
  // next metric's is built.
  TrainedModels trained;
  for (Metric metric : kAllMetrics) {
    std::optional<rc::ml::Dataset> data = build_dataset(metric);
    if (!data) continue;
    std::unique_ptr<rc::ml::Classifier> model = fit(metric, *data);
    ModelSpec spec;
    spec.name = MetricModelName(metric);
    spec.metric = metric;
    spec.encoding = EncodingFor(metric);
    spec.model_family = model->type_name();
    spec.num_features = static_cast<uint32_t>(model->num_features());
    spec.version = 1;
    trained.specs[spec.name] = spec;
    trained.models[spec.name] = std::move(model);
  }
  {
    rc::obs::TraceSpan span("pipeline/feature_snapshot",
                            &StageHistogram(config_.metrics, "feature_snapshot"));
    trained.feature_data = SnapshotFrom(trace, stream, labeler, config_.train_end);
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
  rc::obs::TraceSpan span("pipeline/publish", &StageHistogram(metrics, "publish"));
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
