#include "src/core/evaluation.h"

#include <algorithm>
#include <sstream>

#include "src/obs/trace_context.h"

namespace rc::core {

MetricQuality EvaluateModel(const rc::ml::Classifier& model, const Featurizer& featurizer,
                            std::span<const LabeledExample> examples, double theta) {
  // Evaluation is the "validate" stage of the offline workflow (process-global
  // registry).
  rc::obs::TraceSpan span("pipeline/validate",
                          &OfflinePipeline::StageHistogram(nullptr, "validate"));
  MetricQuality q;
  q.metric = featurizer.metric();
  q.theta = theta;
  const int k = NumBuckets(featurizer.metric());
  rc::ml::ConfusionMatrix confusion(k);
  rc::ml::ThresholdedAccumulator thresholded(theta);

  // Validation scores through the batched engine path: featurize a chunk
  // into one row-major block, one PredictBatch walk per chunk. The chunk
  // size bounds the arena (512 rows x features doubles) while keeping each
  // tree's node-pool slice hot across the whole chunk.
  constexpr size_t kChunk = 512;
  const size_t nf = featurizer.num_features();
  const size_t kk = static_cast<size_t>(model.num_classes());
  std::vector<double> X(kChunk * nf);
  std::vector<double> proba(kChunk * kk);
  for (size_t begin = 0; begin < examples.size(); begin += kChunk) {
    const size_t n = std::min(kChunk, examples.size() - begin);
    for (size_t i = 0; i < n; ++i) {
      const LabeledExample& example = examples[begin + i];
      featurizer.EncodeTo(example.inputs, example.history, {X.data() + i * nf, nf});
    }
    model.PredictBatch(X.data(), n, nf, proba.data());
    for (size_t i = 0; i < n; ++i) {
      const rc::ml::Scored top = rc::ml::Argmax({proba.data() + i * kk, kk});
      const LabeledExample& example = examples[begin + i];
      confusion.Add(example.label, top.label);
      thresholded.Add(example.label, top.label, top.score);
    }
  }

  q.examples = confusion.total();
  q.accuracy = confusion.Accuracy();
  q.buckets.resize(static_cast<size_t>(k));
  for (int c = 0; c < k; ++c) {
    q.buckets[static_cast<size_t>(c)] = BucketQuality{
        confusion.Prevalence(c), confusion.Precision(c), confusion.Recall(c)};
  }
  auto t = thresholded.Result();
  q.p_theta = t.precision;
  q.r_theta = t.coverage;
  return q;
}

std::string FormatMetricQuality(const MetricQuality& q) {
  std::ostringstream os;
  os << MetricName(q.metric) << ": acc=" << q.accuracy;
  for (size_t b = 0; b < q.buckets.size(); ++b) {
    const BucketQuality& bq = q.buckets[b];
    os << " | b" << (b + 1) << " %=" << bq.prevalence << " P=" << bq.precision
       << " R=" << bq.recall;
  }
  os << " | P^t=" << q.p_theta << " R^t=" << q.r_theta << " (n=" << q.examples << ")";
  return os.str();
}

}  // namespace rc::core
