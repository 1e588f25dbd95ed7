// Golden fingerprint of a generated trace. The generator is deterministic
// for a config, and its CSV writer prints every double in shortest
// round-trip form, so a CRC32 of the VM table pins every field of every VM
// bit for bit: the RNG draw order, the lifetimes, the latent utilization
// parameters and the ground-truth summaries. A change that is meant to be
// output-preserving (a faster generator, a parallel summary pass) must leave
// the constant alone.
#include <algorithm>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/crc32.h"
#include "src/common/stats.h"
#include "src/trace/trace_io.h"
#include "src/trace/utilization.h"
#include "src/trace/workload_model.h"

namespace rc::trace {
namespace {

// Two months with resident services: the residents' ~2-month lifetimes
// give stride > 1 summaries, short churn VMs give 1- and 2-sample ones.
WorkloadConfig FingerprintConfig() {
  WorkloadConfig config;
  config.target_vm_count = 24'000;
  config.num_subscriptions = 900;
  config.duration = 60 * kDay;
  config.seed = 2017;
  return config;
}

const Trace& FingerprintTrace() {
  static const Trace trace = WorkloadModel(FingerprintConfig()).Generate();
  return trace;
}

// The summary as Summarize defines it: mean of the avg readings and the
// sort-based P95 of the max readings, over up to 512 evenly strided slots.
UtilizationModel::Summary OracleSummary(const VmRecord& vm, int64_t& samples,
                                        int64_t& stride) {
  constexpr int64_t kMaxSamples = 512;
  const int64_t first = SlotIndex(vm.created);
  const int64_t slots = std::max<int64_t>(SlotIndex(vm.deleted) - first, 1);
  stride = std::max<int64_t>(1, slots / kMaxSamples);
  OnlineStats avg;
  std::vector<double> maxes;
  for (int64_t s = first; s < first + slots; s += stride) {
    CpuReading r = UtilizationModel::ReadingAt(vm.util, s);
    avg.Add(r.avg_cpu);
    maxes.push_back(r.max_cpu);
  }
  samples = static_cast<int64_t>(maxes.size());
  return {avg.mean(), Percentile(std::move(maxes), 95.0)};
}

TEST(TraceFingerprint, VmTableCrcIsPinned) {
  const Trace& trace = FingerprintTrace();
  std::ostringstream out;
  WriteVmTable(trace, out);
  const std::string csv = out.str();
  const uint32_t crc = Crc32(reinterpret_cast<const uint8_t*>(csv.data()), csv.size());
  EXPECT_EQ(trace.vm_count(), 24'005u);
  EXPECT_EQ(crc, 0xcfa04e29u) << std::hex << "crc 0x" << crc;
}

TEST(TraceFingerprint, SummariesMatchSortBasedOracle) {
  const Trace& trace = FingerprintTrace();
  int64_t one_sample = 0, two_samples = 0, strided = 0;
  for (const VmRecord& vm : trace.vms()) {
    int64_t samples = 0, stride = 0;
    const UtilizationModel::Summary want = OracleSummary(vm, samples, stride);
    ASSERT_EQ(vm.avg_cpu, want.avg_cpu) << "vm " << vm.vm_id;
    ASSERT_EQ(vm.p95_max_cpu, want.p95_max_cpu) << "vm " << vm.vm_id;
    const UtilizationModel::Summary got = UtilizationModel::Summarize(vm);
    ASSERT_EQ(got.avg_cpu, want.avg_cpu) << "vm " << vm.vm_id;
    ASSERT_EQ(got.p95_max_cpu, want.p95_max_cpu) << "vm " << vm.vm_id;
    one_sample += samples == 1;
    two_samples += samples == 2;
    strided += stride > 1;
  }
  // The config must keep exercising every shape of the sample loop.
  EXPECT_GT(one_sample, 0);
  EXPECT_GT(two_samples, 0);
  EXPECT_GT(strided, 0);
}

}  // namespace
}  // namespace rc::trace
