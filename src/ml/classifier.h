// Abstract classification-model interface plus the serialization registry.
// Resource Central is agnostic to the modeling approach (paper Section 4.2);
// everything downstream — the model store, the client DLL, the scheduler —
// programs against this interface. Scoring is done one way everywhere:
// probabilities come only from PredictBatch (or, on the client's hot path,
// the same ExecEngine::PredictBatch it forwards to), and Argmax below turns
// one row of them into (bucket, confidence).
#ifndef RC_SRC_ML_CLASSIFIER_H_
#define RC_SRC_ML_CLASSIFIER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/ml/bytes.h"

namespace rc::ml {

class ExecEngine;

class Classifier {
 public:
  virtual ~Classifier() = default;

  virtual int num_classes() const = 0;
  virtual int num_features() const = 0;

  // The one prediction entry point: `n` row-major examples of `stride`
  // doubles each (stride >= num_features(); only the first num_features()
  // of each row are read); writes n * num_classes() probabilities to
  // `proba_out`. The ensemble classifiers forward to their compiled
  // ExecEngine (tree-major, cache-friendly, allocation-free); a single
  // example is n == 1. Virtual so tests can stand in a scripted model.
  virtual void PredictBatch(const double* X, size_t n, size_t stride,
                            double* proba_out) const = 0;

  // The compiled execution-engine representation, when one exists (built on
  // the load path for the ensemble classifiers; nullptr for custom types).
  virtual const ExecEngine* engine() const { return nullptr; }

  // Gain-based feature importance, summed over the ensemble; empty if the
  // model was deserialized without importances.
  virtual std::vector<double> FeatureImportance() const { return {}; }

  // Type tag used by the registry ("random_forest", "gbt").
  virtual const char* type_name() const = 0;
  virtual void Serialize(ByteWriter& w) const = 0;

  // Serializes with a type tag prefix so Deserialize can dispatch.
  std::vector<uint8_t> SerializeTagged() const;
  static std::unique_ptr<Classifier> DeserializeTagged(const std::vector<uint8_t>& bytes);
};

// A scored prediction: the argmax class plus its probability (the
// "confidence score" RC attaches to every prediction, and the score Table 4's
// P^theta/R^theta threshold).
struct Scored {
  int label;
  double score;
};

// The one scoring rule, shared by the client's miss path and offline
// evaluation: argmax over one row of class probabilities (`proba` non-empty),
// ties to the lower class index.
inline Scored Argmax(std::span<const double> proba) {
  size_t best = 0;
  for (size_t c = 1; c < proba.size(); ++c) {
    if (proba[c] > proba[best]) best = c;
  }
  return Scored{static_cast<int>(best), proba[best]};
}

}  // namespace rc::ml

#endif  // RC_SRC_ML_CLASSIFIER_H_
