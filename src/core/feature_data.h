// Per-subscription "feature data" (paper Sections 4.2 and 6.1): rolling
// aggregates of each subscription's past VM behaviour — most importantly the
// fraction of its VMs observed in each bucket of each metric to date, which
// the paper identifies as the most predictive attributes. One record per
// subscription, serialized compactly (the paper measures ~850 bytes per
// subscription record); the full map is what RC pushes to client caches.
#ifndef RC_SRC_CORE_FEATURE_DATA_H_
#define RC_SRC_CORE_FEATURE_DATA_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/buckets.h"
#include "src/ml/bytes.h"
#include "src/trace/vm_types.h"

namespace rc::core {

struct SubscriptionFeatures {
  uint64_t subscription_id = 0;
  int64_t vm_count = 0;          // VMs observed to date
  int64_t deployment_count = 0;  // deployment groups observed to date

  // Fraction of past VMs per bucket, per metric (class uses buckets 0/1).
  std::array<std::array<double, 4>, kNumMetrics> bucket_frac{};

  // Running means of the raw metrics.
  double mean_avg_cpu = 0.0;
  double mean_p95_cpu = 0.0;
  double mean_log_lifetime = 0.0;  // log-seconds
  double mean_cores = 0.0;
  double mean_deploy_vms = 0.0;

  void SerializeTo(rc::ml::ByteWriter& w) const;
  static SubscriptionFeatures DeserializeFrom(rc::ml::ByteReader& r);
  std::vector<uint8_t> Serialize() const;
  static SubscriptionFeatures Deserialize(const std::vector<uint8_t>& bytes);
};

// Incrementally accumulates feature data from observed VM outcomes, in
// creation order. The offline pipeline uses snapshots of this state at each
// VM's creation time as training features (history-so-far), mirroring what
// the online system would have known.
class FeatureDataBuilder {
 public:
  // Current (possibly empty) state for a subscription.
  SubscriptionFeatures Snapshot(uint64_t subscription_id) const;
  bool Has(uint64_t subscription_id) const;

  // Granular observations, in the order the platform would actually learn
  // them: utilization summaries and workload class become observable while a
  // VM runs; its lifetime only at termination; deployment size at the end of
  // the deployment day. The offline pipeline schedules these as events so
  // training features never peek at outcomes that postdate the example.
  void ObserveUtilization(uint64_t subscription_id, double avg_cpu, double p95_max_cpu,
                          int cores);
  void ObserveClass(uint64_t subscription_id, rc::trace::WorkloadClass workload_class);
  void ObserveLifetime(uint64_t subscription_id, SimDuration lifetime);
  // Folds a deployment-group observation (size in #VMs and #cores).
  void ObserveDeployment(uint64_t subscription_id, int64_t vms, int64_t cores);

  // Convenience for tests and non-chronological aggregation: folds a
  // completed VM's utilization, class, and lifetime at once.
  void ObserveVm(const rc::trace::VmRecord& vm, rc::trace::WorkloadClass workload_class);

  // Number of subscriptions observed so far.
  size_t size() const { return entries_.size(); }
  // Moves every subscription's features out, leaving the builder empty.
  std::unordered_map<uint64_t, SubscriptionFeatures> TakeData();

 private:
  struct Counters {
    std::array<std::array<int64_t, 4>, kNumMetrics> bucket_counts{};
    int64_t util_observed = 0;
    int64_t class_observed = 0;
    int64_t lifetime_observed = 0;
    double sum_avg_cpu = 0.0;
    double sum_p95_cpu = 0.0;
    double sum_log_lifetime = 0.0;
    double sum_cores = 0.0;
    double sum_deploy_vms = 0.0;
  };

  // One subscription's features and the counters they are computed from.
  struct Entry {
    SubscriptionFeatures features;
    Counters counters;
  };

  // The subscription's entry, created (with its id set) on first use.
  Entry& EntryFor(uint64_t subscription_id);
  static void Recompute(Entry& entry);

  std::unordered_map<uint64_t, Entry> entries_;
};

}  // namespace rc::core

#endif  // RC_SRC_CORE_FEATURE_DATA_H_
