// Trace container: the synthetic analogue of the paper's three-month Azure
// dataset, with subscription profiles (latent) and per-VM records sorted by
// creation time.
#ifndef RC_SRC_TRACE_TRACE_H_
#define RC_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/trace/vm_types.h"

namespace rc::trace {

class Trace {
 public:
  Trace() = default;
  Trace(std::vector<SubscriptionProfile> subscriptions, std::vector<VmRecord> vms,
        SimDuration observation_window);

  const std::vector<SubscriptionProfile>& subscriptions() const { return subscriptions_; }
  // Sorted by (created, vm_id); the trace never reorders or mutates them
  // after construction.
  const std::vector<VmRecord>& vms() const { return vms_; }
  SimDuration observation_window() const { return observation_window_; }

  size_t vm_count() const { return vms_.size(); }

  // Indices (into vms()) of the VMs of a subscription, in creation order;
  // empty for an id no VM carries.
  std::span<const uint32_t> VmsOfSubscription(uint64_t subscription_id) const;

  const SubscriptionProfile* FindSubscription(uint64_t subscription_id) const;

  // VMs whose whole lifetime falls within the observation window — the
  // population over which the paper states lifetime distributions (94% of
  // its dataset).
  std::vector<const VmRecord*> CompletedVms() const;

  // VMs created in [from, to) (e.g. the test month for Table 4), in trace
  // order.
  std::vector<const VmRecord*> VmsCreatedIn(SimTime from, SimTime to) const;

 private:
  void RebuildIndex();

  std::vector<SubscriptionProfile> subscriptions_;
  std::vector<VmRecord> vms_;  // sorted by (created, vm_id)
  SimDuration observation_window_ = 0;
  // Compressed per-subscription index: the VMs of subscription_ids_[k] are
  // by_subscription_[sub_offsets_[k] .. sub_offsets_[k + 1]).
  std::vector<uint64_t> subscription_ids_;  // distinct ids of vms_, sorted
  std::vector<uint32_t> sub_offsets_;       // subscription_ids_.size() + 1
  std::vector<uint32_t> by_subscription_;   // one index into vms_ per VM
  std::unordered_map<uint64_t, size_t> subscription_index_;
};

}  // namespace rc::trace

#endif  // RC_SRC_TRACE_TRACE_H_
