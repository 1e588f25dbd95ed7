#include "src/sched/cluster.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rc::sched {

namespace {

constexpr size_t kWordBits = 64;

uint64_t BitOf(int id) { return uint64_t{1} << (static_cast<size_t>(id) % kWordBits); }

void SetBit(std::vector<uint64_t>& bits, int id) {
  bits[static_cast<size_t>(id) / kWordBits] |= BitOf(id);
}

void ClearBit(std::vector<uint64_t>& bits, int id) {
  bits[static_cast<size_t>(id) / kWordBits] &= ~BitOf(id);
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  const size_t n = static_cast<size_t>(std::max(config.num_servers, 0));
  servers_.resize(n);
  const size_t words = (n + kWordBits - 1) / kWordBits;
  empty_bits_.assign(words, ~uint64_t{0});
  if (n % kWordBits != 0) empty_bits_.back() = (uint64_t{1} << (n % kWordBits)) - 1;
  kind_bits_[0].assign(words, 0);
  kind_bits_[1].assign(words, 0);
}

double Cluster::HeadroomOf(const Server& s) const {
  if (s.empty() || s.kind != ServerKind::kOversubscribable) return 0.0;
  return std::max(0.0, physical_cores() - s.alloc_cores);
}

void Cluster::PlaceVm(const VmRequest& vm, int server_id) {
  Server& s = servers_[static_cast<size_t>(server_id)];
  oversub_headroom_cores_ -= HeadroomOf(s);
  if (s.empty()) {
    s.kind = vm.production ? ServerKind::kNonOversubscribable
                           : ServerKind::kOversubscribable;
    ClearBit(empty_bits_, server_id);
    SetBit(kind_bits_[static_cast<size_t>(s.kind)], server_id);
  }
  s.alloc_cores += vm.cores;
  s.alloc_mem += vm.memory_gb;
  if (s.kind == ServerKind::kOversubscribable) {
    s.util_cores += vm.predicted_util_fraction * vm.cores;
  }
  s.active_vms += 1;
  oversub_headroom_cores_ += HeadroomOf(s);
}

void Cluster::CompleteVm(const VmRequest& vm, int server_id) {
  Server& s = servers_[static_cast<size_t>(server_id)];
  oversub_headroom_cores_ -= HeadroomOf(s);
  s.alloc_cores -= vm.cores;
  s.alloc_mem -= vm.memory_gb;
  if (s.kind == ServerKind::kOversubscribable) {
    s.util_cores -= vm.predicted_util_fraction * vm.cores;
  }
  s.active_vms -= 1;
  assert(s.active_vms >= 0);
  if (s.active_vms == 0) {
    // Drained servers rejoin the empty pool with clean ledgers (guards
    // against floating-point residue).
    s.alloc_cores = 0.0;
    s.util_cores = 0.0;
    s.alloc_mem = 0.0;
    ClearBit(kind_bits_[static_cast<size_t>(s.kind)], server_id);
    SetBit(empty_bits_, server_id);
  }
  oversub_headroom_cores_ += HeadroomOf(s);
}

bool Cluster::FitsStrict(const VmRequest& vm, const Server& s) const {
  // `&` rather than `&&`: both sides are cheap, and the rule filters that
  // call this stay free of branches.
  return (s.alloc_cores + vm.cores <= physical_cores() + 1e-9) & FitsMemory(vm, s);
}

bool Cluster::FitsMemory(const VmRequest& vm, const Server& s) const {
  return s.alloc_mem + vm.memory_gb <= config_.memory_per_server_gb + 1e-9;
}

void Cluster::CandidateServers(std::optional<ServerKind> kind, std::vector<int>& out) const {
  out.clear();
  bool have_empty = false;
  for (size_t w = 0; w < empty_bits_.size(); ++w) {
    uint64_t bits = kind.has_value() ? kind_bits_[static_cast<size_t>(*kind)][w]
                                     : kind_bits_[0][w] | kind_bits_[1][w];
    if (!have_empty && empty_bits_[w] != 0) {
      bits |= empty_bits_[w] & (~empty_bits_[w] + 1);  // lowest empty server
      have_empty = true;
    }
    const int base = static_cast<int>(w * kWordBits);
    for (; bits != 0; bits &= bits - 1) out.push_back(base + std::countr_zero(bits));
  }
}

}  // namespace rc::sched
