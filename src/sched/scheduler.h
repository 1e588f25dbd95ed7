// The rule-chain scheduler: applies hard and soft rules in order, then
// picks the tightest-packing candidate (highest allocated cores, which also
// fills partially-used servers before empty ones).
#ifndef RC_SRC_SCHED_SCHEDULER_H_
#define RC_SRC_SCHED_SCHEDULER_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sched/cluster.h"
#include "src/sched/rules.h"

namespace rc::sched {

class Scheduler {
 public:
  // `metrics` receives the rc_sched_* instruments — per-rule rejection and
  // softened counters plus the placement-latency histogram (null =
  // process-global registry).
  Scheduler(Cluster* cluster, std::vector<std::unique_ptr<Rule>> rules,
            rc::obs::MetricsRegistry* metrics = nullptr);

  // Selects a server and performs PlaceVM bookkeeping; nullopt = scheduling
  // failure (no server satisfies the hard rules).
  std::optional<int> Schedule(const VmRequest& vm);

  // VMCompleted bookkeeping.
  void Complete(const VmRequest& vm, int server_id);

  const Cluster& cluster() const { return *cluster_; }

 private:
  Cluster* cluster_;
  std::vector<std::unique_ptr<Rule>> rules_;
  // Candidate buffers reused across calls: scratch_ holds the survivors,
  // backup_ the set a soft rule started from.
  std::vector<int> scratch_;
  std::vector<int> backup_;
  // Parallel to rules_: rejections[i] counts hard-rule i emptying the
  // candidate set (a scheduling failure attributed to that rule);
  // softened[i] counts soft-rule i being disregarded because enforcing it
  // would have left no candidate.
  std::vector<rc::obs::Counter*> rejections_;
  std::vector<rc::obs::Counter*> softened_;
  rc::obs::Histogram* place_latency_us_ = nullptr;
};

}  // namespace rc::sched

#endif  // RC_SRC_SCHED_SCHEDULER_H_
