// Rule-chain scheduler (paper Section 5): Azure's scheduler "sequentially
// applies a set of rules that progressively narrow the choice of servers".
// Hard rules must hold; a soft rule is disregarded if enforcing it would
// leave no candidate (the paper's soft variant of the utilization check).
#ifndef RC_SRC_SCHED_RULES_H_
#define RC_SRC_SCHED_RULES_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/sched/cluster.h"

namespace rc::sched {

// The invariant every rule keeps, and Scheduler::Schedule relies on to
// offer a rule chain the non-empty servers plus only the lowest-id empty one
// (Cluster::CandidateServers):
//  * Filter decides each server on its own, from the VM and that server's
//    state, and keeps the survivors in their input order.
//  * All empty servers look alike. An empty server's ledgers are zero, and
//    its `kind` is left over from its last tenant, so a rule reads `kind`
//    only after checking `empty()`.
// So one empty server survives a rule exactly when every empty server does,
// and among surviving empty servers the scheduler's pick (highest
// alloc_cores, then lowest id) can only be the lowest-id one.
class Rule {
 public:
  virtual ~Rule() = default;
  virtual const char* name() const = 0;
  virtual bool hard() const = 0;
  // Removes ineligible servers from `candidates`.
  virtual void Filter(const VmRequest& vm, const Cluster& cluster,
                      std::vector<int>& candidates) const = 0;
  // For a hard rule: the one kind of non-empty server Filter can keep for
  // `vm`, if it keeps only one. The scheduler then offers the rule only
  // non-empty servers of that kind (plus the empty one) when the rule comes
  // first in the chain.
  virtual std::optional<ServerKind> OnlyNonEmptyKind(const VmRequest&) const {
    return std::nullopt;
  }
};

// Baseline fit: allocation and memory within physical capacity; no
// production / non-production distinction, no oversubscription.
class StrictFitRule final : public Rule {
 public:
  const char* name() const override { return "strict-fit"; }
  bool hard() const override { return true; }
  void Filter(const VmRequest& vm, const Cluster& cluster,
              std::vector<int>& candidates) const override;
};

struct OversubParams {
  double max_oversub = 1.25;  // MAX_OVERSUB: allocation cap on oversub servers
  double max_util = 1.00;     // MAX_UTIL: predicted-utilization cap
};

// Algorithm 1's SelectCandidateServers. Production VMs go to
// non-oversubscribable (or empty) servers under the strict allocation check;
// non-production VMs go to oversubscribable (or empty) servers under
// MAX_OVERSUB on allocation. When `enforce_util_check` is true the
// c.util + V.util <= MAX_UTIL condition is applied too; the soft-rule
// configuration instead applies it via a separate UtilizationCapRule.
class OversubFitRule final : public Rule {
 public:
  OversubFitRule(OversubParams params, bool enforce_util_check)
      : params_(params), enforce_util_check_(enforce_util_check) {}

  const char* name() const override { return "oversub-fit"; }
  bool hard() const override { return true; }
  void Filter(const VmRequest& vm, const Cluster& cluster,
              std::vector<int>& candidates) const override;
  // Production VMs stay on non-oversubscribable servers, the rest on
  // oversubscribable ones.
  std::optional<ServerKind> OnlyNonEmptyKind(const VmRequest& vm) const override {
    return vm.production ? ServerKind::kNonOversubscribable : ServerKind::kOversubscribable;
  }

 private:
  OversubParams params_;
  bool enforce_util_check_;
};

// The utilization check as a soft rule (paper: "Implementation as a soft
// rule"): drops servers whose predicted utilization would exceed MAX_UTIL,
// but is disregarded by the chain when it would eliminate every candidate.
class UtilizationCapRule final : public Rule {
 public:
  explicit UtilizationCapRule(OversubParams params) : params_(params) {}

  const char* name() const override { return "util-cap"; }
  bool hard() const override { return false; }
  void Filter(const VmRequest& vm, const Cluster& cluster,
              std::vector<int>& candidates) const override;

 private:
  OversubParams params_;
};

// Soft preference that avoids oversubscribing a server when another
// candidate can take the VM without oversubscription (paper Section 5).
class AvoidOversubscriptionRule final : public Rule {
 public:
  const char* name() const override { return "avoid-oversub"; }
  bool hard() const override { return false; }
  void Filter(const VmRequest& vm, const Cluster& cluster,
              std::vector<int>& candidates) const override;
};

// Soft preference for filling partially-used servers before opening empty
// ones ("a later rule tries to fill up non-oversubscribable servers before
// it places VMs in empty servers") — keeps the empty pool available for
// whichever group needs it.
class PreferNonEmptyRule final : public Rule {
 public:
  const char* name() const override { return "prefer-non-empty"; }
  bool hard() const override { return false; }
  void Filter(const VmRequest& vm, const Cluster& cluster,
              std::vector<int>& candidates) const override;
};

}  // namespace rc::sched

#endif  // RC_SRC_SCHED_RULES_H_
