#include "src/trace/trace.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rc::trace {

Trace::Trace(std::vector<SubscriptionProfile> subscriptions, std::vector<VmRecord> vms,
             SimDuration observation_window)
    : subscriptions_(std::move(subscriptions)),
      vms_(std::move(vms)),
      observation_window_(observation_window) {
  std::sort(vms_.begin(), vms_.end(),
            [](const VmRecord& a, const VmRecord& b) {
              if (a.created != b.created) return a.created < b.created;
              return a.vm_id < b.vm_id;
            });
  RebuildIndex();
}

void Trace::RebuildIndex() {
  if (vms_.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("Trace: more VMs than a uint32_t index can address");
  }
  // Counting pass: number the distinct subscriptions in id order, count
  // their VMs, then place each VM's index after its subscription's
  // predecessors. Visiting vms_ in order keeps each group in creation order.
  std::unordered_map<uint64_t, uint32_t> group;
  for (const VmRecord& vm : vms_) ++group[vm.subscription_id];
  subscription_ids_.clear();
  subscription_ids_.reserve(group.size());
  for (const auto& [id, count] : group) subscription_ids_.push_back(id);
  std::sort(subscription_ids_.begin(), subscription_ids_.end());
  sub_offsets_.assign(subscription_ids_.size() + 1, 0);
  for (size_t k = 0; k < subscription_ids_.size(); ++k) {
    uint32_t& slot = group[subscription_ids_[k]];
    sub_offsets_[k + 1] = sub_offsets_[k] + slot;
    slot = sub_offsets_[k];  // from here on: next free position of group k
  }
  by_subscription_.resize(vms_.size());
  for (size_t i = 0; i < vms_.size(); ++i) {
    by_subscription_[group[vms_[i].subscription_id]++] = static_cast<uint32_t>(i);
  }

  subscription_index_.clear();
  for (size_t i = 0; i < subscriptions_.size(); ++i) {
    subscription_index_[subscriptions_[i].subscription_id] = i;
  }
}

std::span<const uint32_t> Trace::VmsOfSubscription(uint64_t subscription_id) const {
  auto it = std::lower_bound(subscription_ids_.begin(), subscription_ids_.end(),
                             subscription_id);
  if (it == subscription_ids_.end() || *it != subscription_id) return {};
  size_t k = static_cast<size_t>(it - subscription_ids_.begin());
  return std::span<const uint32_t>(by_subscription_).subspan(
      sub_offsets_[k], sub_offsets_[k + 1] - sub_offsets_[k]);
}

const SubscriptionProfile* Trace::FindSubscription(uint64_t subscription_id) const {
  auto it = subscription_index_.find(subscription_id);
  return it == subscription_index_.end() ? nullptr : &subscriptions_[it->second];
}

std::vector<const VmRecord*> Trace::CompletedVms() const {
  std::vector<const VmRecord*> out;
  out.reserve(vms_.size());
  for (const auto& vm : vms_) {
    if (vm.created >= 0 && vm.deleted <= observation_window_) out.push_back(&vm);
  }
  return out;
}

std::vector<const VmRecord*> Trace::VmsCreatedIn(SimTime from, SimTime to) const {
  auto created_before = [](const VmRecord& vm, SimTime t) { return vm.created < t; };
  auto first = std::lower_bound(vms_.begin(), vms_.end(), from, created_before);
  auto last = std::lower_bound(first, vms_.end(), to, created_before);
  std::vector<const VmRecord*> out;
  out.reserve(static_cast<size_t>(last - first));
  for (auto it = first; it != last; ++it) out.push_back(&*it);
  return out;
}

}  // namespace rc::trace
