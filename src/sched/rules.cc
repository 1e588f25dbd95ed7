#include "src/sched/rules.h"

namespace rc::sched {

namespace {

// Keeps the candidates `eligible` accepts, in order. Every candidate is
// written and the output index advances by the verdict, so the loop has no
// data-dependent branch; the predicates below combine their tests with `&`
// for the same reason.
template <typename Pred>
void KeepIf(std::vector<int>& candidates, Pred eligible) {
  size_t kept = 0;
  for (int id : candidates) {
    candidates[kept] = id;
    kept += static_cast<size_t>(eligible(id));
  }
  candidates.resize(kept);
}

}  // namespace

void StrictFitRule::Filter(const VmRequest& vm, const Cluster& cluster,
                           std::vector<int>& candidates) const {
  KeepIf(candidates, [&](int id) { return cluster.FitsStrict(vm, cluster.server(id)); });
}

void OversubFitRule::Filter(const VmRequest& vm, const Cluster& cluster,
                            std::vector<int>& candidates) const {
  const double physical = cluster.physical_cores();
  if (vm.production) {
    KeepIf(candidates, [&](int id) {
      const Server& s = cluster.server(id);
      bool group_ok = s.empty() | (s.kind == ServerKind::kNonOversubscribable);
      return group_ok & cluster.FitsStrict(vm, s);
    });
    return;
  }
  const double alloc_cap = params_.max_oversub * physical + 1e-9;
  const double util_cap = params_.max_util * physical + 1e-9;
  const double vm_util = vm.predicted_util_fraction * vm.cores;
  KeepIf(candidates, [&](int id) {
    const Server& s = cluster.server(id);
    bool group_ok = s.empty() | (s.kind == ServerKind::kOversubscribable);
    bool util_ok = !enforce_util_check_ | (s.util_cores + vm_util <= util_cap);
    return group_ok & cluster.FitsMemory(vm, s) & (s.alloc_cores + vm.cores <= alloc_cap) &
           util_ok;
  });
}

void UtilizationCapRule::Filter(const VmRequest& vm, const Cluster& cluster,
                                std::vector<int>& candidates) const {
  if (vm.production) return;  // the cap only governs oversubscribable servers
  const double util_cap = params_.max_util * cluster.physical_cores() + 1e-9;
  const double vm_util = vm.predicted_util_fraction * vm.cores;
  KeepIf(candidates, [&](int id) {
    return cluster.server(id).util_cores + vm_util <= util_cap;
  });
}

void AvoidOversubscriptionRule::Filter(const VmRequest& vm, const Cluster& cluster,
                                       std::vector<int>& candidates) const {
  if (vm.production) return;
  const double cap = cluster.physical_cores() + 1e-9;
  KeepIf(candidates, [&](int id) { return cluster.server(id).alloc_cores + vm.cores <= cap; });
}

void PreferNonEmptyRule::Filter(const VmRequest& vm, const Cluster& cluster,
                                std::vector<int>& candidates) const {
  (void)vm;
  KeepIf(candidates, [&](int id) { return !cluster.server(id).empty(); });
}

}  // namespace rc::sched
