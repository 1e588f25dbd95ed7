// Cluster and server model for the VM scheduler (paper Section 5). Servers
// track two CPU ledgers, exactly as Algorithm 1's bookkeeping does:
// allocated virtual cores (c.alloc) and predicted-utilization cores (c.util,
// maintained only on oversubscribable servers). A server is logically split
// into the oversubscribable / non-oversubscribable groups by the first VM
// placed on it and returns to the empty pool when it drains. The cluster
// also keeps one bitset of non-empty servers per group, so the scheduler can
// offer its rules the occupied servers plus one empty server instead of the
// whole cluster (see CandidateServers).
#ifndef RC_SRC_SCHED_CLUSTER_H_
#define RC_SRC_SCHED_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/sim_time.h"
#include "src/trace/vm_types.h"

namespace rc::sched {

// A VM placement request plus the policy-computed utilization estimate.
struct VmRequest {
  uint64_t vm_id = 0;
  double memory_gb = 1.75;
  SimTime arrival = 0;
  SimTime departure = 0;
  // Predicted P95 utilization as a fraction of the allocation, set by the
  // scheduling policy before placement (1.0 = assume full usage; Algorithm 1
  // line 13). Bookkept on oversubscribable servers as cores * fraction.
  double predicted_util_fraction = 1.0;
  // Source record for telemetry replay in the simulator.
  const rc::trace::VmRecord* source = nullptr;
  int cores = 1;            // virtual core allocation
  bool production = true;   // production VMs are never used to oversubscribe
  // Set by SchedulingPolicy::PrefetchUtil when predicted_util_fraction was
  // already filled by a batched prediction lookup; Place consumes (and
  // clears) it instead of asking the predictor again.
  bool util_prefetched = false;
};
// A month's requests stay resident through the simulation: the small fields
// share the last word.
static_assert(sizeof(VmRequest) == 56);

enum class ServerKind : uint8_t { kNonOversubscribable = 0, kOversubscribable = 1 };

struct Server {
  double alloc_cores = 0.0;  // sum of hosted VMs' allocations
  double util_cores = 0.0;   // sum of predicted-utilization cores (oversub only)
  double alloc_mem = 0.0;
  int32_t active_vms = 0;
  ServerKind kind = ServerKind::kNonOversubscribable;

  bool empty() const { return active_vms == 0; }
};

struct ClusterConfig {
  int num_servers = 880;
  int cores_per_server = 16;
  double memory_per_server_gb = 112.0;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }
  int size() const { return static_cast<int>(servers_.size()); }
  const Server& server(int id) const { return servers_[static_cast<size_t>(id)]; }

  // Algorithm 1's PlaceVM: tags empty servers by the VM's production status
  // and updates both ledgers. The caller must have validated the fit.
  void PlaceVm(const VmRequest& vm, int server_id);
  // Algorithm 1's VMCompleted.
  void CompleteVm(const VmRequest& vm, int server_id);

  // Fits ignoring oversubscription (production-side check): allocation and
  // memory within physical capacity.
  bool FitsStrict(const VmRequest& vm, const Server& s) const;
  // Memory always fits strictly (memory is never oversubscribed).
  bool FitsMemory(const VmRequest& vm, const Server& s) const;

  double physical_cores() const { return static_cast<double>(config_.cores_per_server); }

  // Replaces `out` with the servers the scheduler offers its rule chain, in
  // ascending id order: every non-empty server (only those tagged `kind`,
  // when given) plus the lowest-id empty server, if any. The rules treat all
  // empty servers alike (rules.h), so that one stands in for all of them.
  void CandidateServers(std::optional<ServerKind> kind, std::vector<int>& out) const;

  // Unallocated physical cores across the non-empty oversubscribable servers:
  // the sum of max(0, physical - alloc_cores). Kept as servers fill and
  // drain; exact, because alloc_cores is always a sum of whole cores.
  double oversub_headroom_cores() const { return oversub_headroom_cores_; }

 private:
  // The server's share of oversub_headroom_cores_ (0 unless non-empty and
  // oversubscribable).
  double HeadroomOf(const Server& s) const;

  ClusterConfig config_;
  std::vector<Server> servers_;
  // One bit per server (bit id % 64 of word id / 64). empty_bits_ marks the
  // empty servers; kind_bits_[k] the non-empty servers tagged ServerKind k.
  // Every server's bit is set in exactly one of the three.
  std::vector<uint64_t> empty_bits_;
  std::vector<uint64_t> kind_bits_[2];
  double oversub_headroom_cores_ = 0.0;
};

}  // namespace rc::sched

#endif  // RC_SRC_SCHED_CLUSTER_H_
