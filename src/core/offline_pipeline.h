// RC's offline workflow (paper Figure 9): data extraction, cleanup,
// aggregation, feature-data generation, training, validation, and model
// generation — then publication (with version numbers) to the highly
// available store.
//
// Training examples are built chronologically: a VM's features are the
// snapshot of its subscription's history at the VM's creation instant, with
// outcome observations folded in only at the time the platform would learn
// them (utilization and class while the VM runs; lifetime at termination;
// deployment size at end of the deployment day). This avoids training-time
// leakage and matches how the online system sees the world.
#ifndef RC_SRC_CORE_OFFLINE_PIPELINE_H_
#define RC_SRC_CORE_OFFLINE_PIPELINE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/buckets.h"
#include "src/core/feature_data.h"
#include "src/core/featurizer.h"
#include "src/core/model_spec.h"
#include "src/core/prediction.h"
#include "src/ml/classifier.h"
#include "src/ml/gbt.h"
#include "src/ml/random_forest.h"
#include "src/obs/metrics.h"
#include "src/store/kv_store.h"
#include "src/trace/trace.h"
#include "src/trace/vm_size_catalog.h"

namespace rc::core {

struct PipelineConfig {
  // Training window (the paper trains on two months, tests on the third).
  SimTime train_begin = 0;
  SimTime train_end = 60 * kDay;
  rc::ml::RandomForestConfig rf;  // utilization metrics
  rc::ml::GbtConfig gbt;          // deployment size, lifetime, class
  // Registry receiving the rc_pipeline_* stage-duration instruments;
  // null = process-global.
  rc::obs::MetricsRegistry* metrics = nullptr;
};

// One labeled example: creation-time inputs + history snapshot + outcome.
struct LabeledExample {
  ClientInputs inputs;
  SubscriptionFeatures history;
  int label = 0;
};

struct TrainedModels {
  std::map<std::string, std::unique_ptr<rc::ml::Classifier>> models;  // by model name
  std::map<std::string, ModelSpec> specs;
  // Feature-data snapshot at train_end — what RC pushes to clients.
  std::unordered_map<uint64_t, SubscriptionFeatures> feature_data;
};

class OfflinePipeline {
 public:
  // Metric m's model is fit with seed kSeed + m, whatever `rf.seed` and
  // `gbt.seed` hold.
  static constexpr uint64_t kSeed = 17;

  explicit OfflinePipeline(PipelineConfig config) : config_(std::move(config)) {}

  // Runs the full workflow over the trace and returns the six trained
  // models plus the feature-data snapshot. The class metric is labeled with
  // the FFT detector's output (the paper's method).
  TrainedModels Run(const rc::trace::Trace& trace) const;

  // Builds chronological labeled examples for `metric` over VMs (or, for the
  // deployment metrics, deployment groups) created in [from, to). Exposed for
  // evaluation (Table 4 uses the third month) and for the ablation benches.
  // `fft_labels` picks the FFT detector's class labels over the generator's
  // ground truth.
  static std::vector<LabeledExample> BuildExamples(const rc::trace::Trace& trace,
                                                   Metric metric, SimTime from, SimTime to,
                                                   bool fft_labels);

  // Feature-data snapshot with all observations up to `until` folded in.
  static std::unordered_map<uint64_t, SubscriptionFeatures> BuildFeatureSnapshot(
      const rc::trace::Trace& trace, SimTime until, bool fft_labels);

  // Converts examples to an ml::Dataset under the given encoding.
  static rc::ml::Dataset ToDataset(const std::vector<LabeledExample>& examples,
                                   const Featurizer& featurizer);

  // Publishes models, specs, and feature data to the store. Failed writes
  // (store outage, injected publish faults) are retried a bounded number of
  // times; returns how many records were durably published so callers can
  // detect a partial publication. `metrics` receives the publish counters and
  // stage-duration sample (null = process-global).
  static size_t Publish(const TrainedModels& trained, rc::store::KvStore& store,
                        rc::obs::MetricsRegistry* metrics = nullptr);

  // Default model family per metric (Table 1): Random Forest for the two
  // utilization metrics, boosted trees for the rest.
  static bool UsesRandomForest(Metric metric);
  static FeatureEncoding EncodingFor(Metric metric);

  // The rc_pipeline_stage_duration_us series every stage times itself into,
  // labeled {stage} (and {model} for the per-fit train stage); null
  // `metrics` = process-global.
  static rc::obs::Histogram& StageHistogram(rc::obs::MetricsRegistry* metrics,
                                            const char* stage, const char* model = nullptr);

 private:
  PipelineConfig config_;
};

}  // namespace rc::core

#endif  // RC_SRC_CORE_OFFLINE_PIPELINE_H_
