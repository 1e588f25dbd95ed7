// Turns (client inputs, subscription feature data) into model feature
// vectors. Two encodings are provided, mirroring Table 1's feature counts:
//
//  * kExpanded — one-hot categorical attributes plus the full subscription
//    history block (~120 features); used by the Random Forest utilization
//    models (paper: 127 features).
//  * kCompact — integer-coded categoricals plus only the metric-relevant
//    history block (~20-30 features); used by the boosted-tree models
//    (paper: 24-34 features).
//
// The encoding is part of the published model spec, so the client library
// reconstructs the exact feature layout from the store.
#ifndef RC_SRC_CORE_FEATURIZER_H_
#define RC_SRC_CORE_FEATURIZER_H_

#include <span>
#include <string>
#include <vector>

#include "src/common/buckets.h"
#include "src/core/feature_data.h"
#include "src/core/prediction.h"
#include "src/trace/vm_size_catalog.h"
#include "src/trace/vm_types.h"

namespace rc::core {

enum class FeatureEncoding { kExpanded = 0, kCompact = 1 };

// "svc-0".."svc-19"; id 0 = unknown.
inline constexpr int kNumServices = rc::trace::kNumServices;
inline constexpr int kNumRoles = 5;  // IaaS + 4 PaaS roles
inline constexpr int kNumRegions = rc::trace::kNumRegions;
inline constexpr int kNumSizes = 14;

class Featurizer {
 public:
  Featurizer(Metric metric, FeatureEncoding encoding);

  Metric metric() const { return metric_; }
  FeatureEncoding encoding() const { return encoding_; }
  size_t num_features() const { return names_.size(); }
  const std::vector<std::string>& feature_names() const { return names_; }

  // Writes one feature row into caller storage (allocation-free);
  // `out.size()` must equal num_features().
  void EncodeTo(const ClientInputs& inputs, const SubscriptionFeatures& history,
                std::span<double> out) const;

 private:
  void BuildNames();

  Metric metric_;
  FeatureEncoding encoding_;
  std::vector<std::string> names_;
};

// Client inputs as the scheduler (or any client) would assemble them for a
// VM at creation time — only creation-time-observable attributes.
ClientInputs InputsFromVm(const rc::trace::VmRecord& vm,
                          const rc::trace::VmSizeCatalog& catalog);

}  // namespace rc::core

#endif  // RC_SRC_CORE_FEATURIZER_H_
