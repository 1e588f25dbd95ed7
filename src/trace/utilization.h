// Deterministic, random-access synthesis of per-VM 5-minute CPU telemetry.
//
// Storing three doubles per VM per 5-minute slot for a month-scale trace
// would cost gigabytes, so instead each VM's telemetry is a pure function of
// its latent UtilizationParams and the slot index: the same (vm, slot) query
// always returns the same reading, in any order, with no per-VM state. The
// signal is base level + optional 24-hour diurnal component (interactive
// workloads) + smooth value-noise (hourly knots, linearly interpolated) +
// per-slot jitter; the max reading adds a heavy-tailed burst term and the min
// subtracts a dip term.
#ifndef RC_SRC_TRACE_UTILIZATION_H_
#define RC_SRC_TRACE_UTILIZATION_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/trace/vm_types.h"

namespace rc::trace {

class UtilizationModel {
 public:
  // Reading for the 5-minute slot with absolute index `slot`
  // (slot = time / kSlot). Valid for slots within the VM's lifetime;
  // callers are responsible for range checks.
  static CpuReading ReadingAt(const UtilizationParams& p, int64_t slot);
  static CpuReading ReadingAt(const VmRecord& vm, int64_t slot) {
    return ReadingAt(vm.util, slot);
  }
  // What a reading at one slot shares across VMs: the slot's time and, for
  // every hash noise term HashU64(seed ^ HashU64(k)), the inner HashU64 of
  // the slot and of the two hourly knots around it.
  struct SlotHashes {
    explicit SlotHashes(int64_t slot);
    double t_hours;    // slot start, hours
    double knot_frac;  // position between the two knots, [0, 1)
    uint64_t slot_hash;       // HashU64(slot)
    uint64_t knot_hash;       // HashU64(knot)
    uint64_t next_knot_hash;  // HashU64(knot + 1)
  };
  // ReadingAt(p, slot).max_cpu, bit for bit, for SlotHashes(slot): without
  // the min reading's dip hash, and with the slot's inner hashes computed
  // once for all VMs, so per VM it costs 4 hash mixes. The per-slot load a
  // placement simulator adds up.
  static double MaxCpuAt(const UtilizationParams& p, const SlotHashes& slot);

  // Average-CPU series for `n` consecutive slots starting at `from_slot`.
  static std::vector<double> AvgSeries(const UtilizationParams& p, int64_t from_slot,
                                       int64_t n);

  // Ground-truth summary over the VM's lifetime: mean of avg readings and
  // 95th percentile of max readings. For very long VMs the series is sampled
  // at up to `max_samples` evenly spaced slots; the paper's aggregation
  // pipeline similarly works from periodic telemetry. Thread-safe: the
  // sample buffer is per thread.
  struct Summary {
    double avg_cpu;
    double p95_max_cpu;
  };
  static Summary Summarize(const VmRecord& vm, int64_t max_samples = 512);

  // Uniform [0,1) hash noise for (seed, k); exposed for tests.
  static double HashNoise(uint64_t seed, int64_t k);

 private:
  // The avg reading and the max reading (avg plus burst term) at `slot`.
  struct AvgMax {
    double avg;
    double max;
  };
  static AvgMax AvgAndMaxAt(const UtilizationParams& p, const SlotHashes& slot);
};

}  // namespace rc::trace

#endif  // RC_SRC_TRACE_UTILIZATION_H_
