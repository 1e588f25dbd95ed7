#include "src/sched/scheduler.h"

#include "src/obs/trace_context.h"

namespace rc::sched {

Scheduler::Scheduler(Cluster* cluster, std::vector<std::unique_ptr<Rule>> rules,
                     rc::obs::MetricsRegistry* metrics)
    : cluster_(cluster), rules_(std::move(rules)) {
  rc::obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : rc::obs::MetricsRegistry::Global();
  rejections_.reserve(rules_.size());
  softened_.reserve(rules_.size());
  for (const auto& rule : rules_) {
    rejections_.push_back(&reg.GetCounter("rc_sched_rule_rejections",
                                          {{"rule", rule->name()}},
                                          "hard rule emptied the candidate set"));
    softened_.push_back(&reg.GetCounter("rc_sched_rule_softened",
                                        {{"rule", rule->name()}},
                                        "soft rule disregarded (would empty set)"));
  }
  place_latency_us_ = &reg.GetHistogram("rc_sched_place_latency_us", {},
                                        "Schedule() wall time (us)");
}

std::optional<int> Scheduler::Schedule(const VmRequest& vm) {
  rc::obs::TraceSpan span("sched/place", place_latency_us_);
  // The non-empty servers plus one empty server stand in for the whole
  // cluster (the rule invariant in rules.h); a leading hard rule that keeps
  // only one kind of non-empty server narrows them to that kind.
  std::optional<ServerKind> kind;
  if (!rules_.empty() && rules_.front()->hard()) kind = rules_.front()->OnlyNonEmptyKind(vm);
  cluster_->CandidateServers(kind, scratch_);

  for (size_t i = 0; i < rules_.size(); ++i) {
    const auto& rule = rules_[i];
    if (rule->hard()) {
      rule->Filter(vm, *cluster_, scratch_);
      if (scratch_.empty()) {
        rejections_[i]->Increment();
        return std::nullopt;
      }
    } else {
      // Soft rule: enforce only if at least one candidate survives.
      backup_.assign(scratch_.begin(), scratch_.end());
      rule->Filter(vm, *cluster_, scratch_);
      if (scratch_.empty()) {
        softened_[i]->Increment();
        scratch_.swap(backup_);
      }
    }
  }

  // Tightest packing among survivors.
  int best = scratch_.front();
  double best_alloc = cluster_->server(best).alloc_cores;
  for (int id : scratch_) {
    double alloc = cluster_->server(id).alloc_cores;
    if (alloc > best_alloc) {
      best = id;
      best_alloc = alloc;
    }
  }
  cluster_->PlaceVm(vm, best);
  return best;
}

void Scheduler::Complete(const VmRequest& vm, int server_id) {
  cluster_->CompleteVm(vm, server_id);
}

}  // namespace rc::sched
