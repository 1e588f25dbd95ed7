#include "src/trace/trace_io.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/core/featurizer.h"
#include "src/trace/utilization.h"
#include "src/trace/vm_size_catalog.h"
#include "src/trace/workload_model.h"

namespace rc::trace {
namespace {

Trace SmallTrace() {
  WorkloadConfig config;
  config.target_vm_count = 500;
  config.num_subscriptions = 40;
  config.seed = 77;
  return WorkloadModel(config).Generate();
}

// Writes one default VM (an IaaS VM of no named service), swaps the names in
// its role and service columns, and reads the record back.
VmRecord ReadWithNames(const std::string& role, const std::string& service) {
  VmRecord vm;
  vm.deleted = kHour;
  std::stringstream written;
  WriteVmTable(Trace({}, {vm}, kDay), written);
  std::string csv = written.str();
  const std::string canonical = ",production,IaaS,unknown,";
  size_t at = csv.find(canonical);
  EXPECT_NE(at, std::string::npos);
  if (at == std::string::npos) return vm;
  csv.replace(at, canonical.size(), ",production," + role + "," + service + ",");
  std::stringstream in(csv);
  return ReadVmTable(in, kDay).vms().at(0);
}

TEST(TraceIoTest, RoundTripPreservesRecords) {
  Trace original = SmallTrace();
  std::stringstream ss;
  WriteVmTable(original, ss);
  Trace restored = ReadVmTable(ss, original.observation_window());

  ASSERT_EQ(restored.vm_count(), original.vm_count());
  for (size_t i = 0; i < original.vm_count(); ++i) {
    const VmRecord& a = original.vms()[i];
    const VmRecord& b = restored.vms()[i];
    ASSERT_EQ(a.vm_id, b.vm_id);
    ASSERT_EQ(a.deployment_id, b.deployment_id);
    ASSERT_EQ(a.subscription_id, b.subscription_id);
    ASSERT_EQ(a.party, b.party);
    ASSERT_EQ(a.vm_type, b.vm_type);
    ASSERT_EQ(a.guest_os, b.guest_os);
    ASSERT_EQ(a.tag, b.tag);
    ASSERT_EQ(a.role, b.role);
    ASSERT_EQ(a.service, b.service);
    ASSERT_EQ(a.cores, b.cores);
    ASSERT_EQ(a.created, b.created);
    ASSERT_EQ(a.deleted, b.deleted);
    ASSERT_EQ(a.true_class, b.true_class);
    ASSERT_EQ(a.region, b.region);
    ASSERT_EQ(a.memory_gb, b.memory_gb);
    // Doubles are written in their shortest round-trip form: exact.
    ASSERT_EQ(a.avg_cpu, b.avg_cpu);
    ASSERT_EQ(a.p95_max_cpu, b.p95_max_cpu);
    ASSERT_EQ(a.util.seed, b.util.seed);
    ASSERT_EQ(a.util.base, b.util.base);
    ASSERT_EQ(a.util.diurnal_amp, b.util.diurnal_amp);
    ASSERT_EQ(a.util.diurnal_phase_h, b.util.diurnal_phase_h);
    ASSERT_EQ(a.util.noise_amp, b.util.noise_amp);
    ASSERT_EQ(a.util.burst_amp, b.util.burst_amp);
  }
}

TEST(TraceIoTest, RewriteIsByteIdentical) {
  // The writer prints the canonical role and service names, so a restored
  // trace writes the same bytes.
  std::stringstream first;
  WriteVmTable(SmallTrace(), first);
  const std::string bytes = first.str();
  Trace restored = ReadVmTable(first, kDay);
  std::stringstream second;
  WriteVmTable(restored, second);
  EXPECT_EQ(second.str(), bytes);
}

TEST(TraceIoTest, ReadsRoleAndServiceCodes) {
  EXPECT_EQ(ReadWithNames("IaaS", "unknown").role, Role::kIaas);
  EXPECT_EQ(ReadWithNames("WebRole", "unknown").role, Role::kWebRole);
  EXPECT_EQ(ReadWithNames("WorkerRole", "unknown").role, Role::kWorkerRole);
  EXPECT_EQ(ReadWithNames("CacheRole", "unknown").role, Role::kCacheRole);
  EXPECT_EQ(ReadWithNames("DbRole", "unknown").role, Role::kDbRole);
  EXPECT_EQ(ReadWithNames("IaaS", "unknown").service, 0);
  EXPECT_EQ(ReadWithNames("IaaS", "svc-0").service, 1);
  EXPECT_EQ(ReadWithNames("IaaS", "svc-19").service, 20);
}

TEST(TraceIoTest, NamesOutsideTheVocabularyReadAsCodeZero) {
  EXPECT_EQ(ReadWithNames("Mystery", "unknown").role, Role::kIaas);
  EXPECT_EQ(ReadWithNames("IaaS", "svc-25").service, 0);  // out of catalog
  EXPECT_EQ(ReadWithNames("IaaS", "svc--1").service, 0);
  EXPECT_EQ(ReadWithNames("IaaS", "other").service, 0);
}

TEST(TraceIoTest, ServiceNumbersParseWholeAndInRange) {
  // The whole suffix must be a number in the catalog: no wrap-around on
  // overflow, no signs or spaces, nothing after the digits.
  EXPECT_EQ(ReadWithNames("IaaS", "svc-4294967299").service, 0);  // 2^32 + 3
  EXPECT_EQ(ReadWithNames("IaaS", "svc-99999999999999999999").service, 0);
  EXPECT_EQ(ReadWithNames("IaaS", "svc- +3x").service, 0);
  EXPECT_EQ(ReadWithNames("IaaS", "svc-+3").service, 0);
  EXPECT_EQ(ReadWithNames("IaaS", "svc- 3").service, 0);
  EXPECT_EQ(ReadWithNames("IaaS", "svc-3x").service, 0);
  EXPECT_EQ(ReadWithNames("IaaS", "svc-").service, 0);
  EXPECT_EQ(ReadWithNames("IaaS", "svc-20").service, 0);
  EXPECT_EQ(ReadWithNames("IaaS", "svc-3").service, 4);
  EXPECT_EQ(ReadWithNames("IaaS", "svc-03").service, 4);
}

TEST(InputsFromVmTest, SameAfterCsvRoundTrip) {
  // Every VM featurizes the same from the generator's codes as from the
  // codes its CSV names parse back to.
  Trace original = SmallTrace();
  std::stringstream ss;
  WriteVmTable(original, ss);
  Trace restored = ReadVmTable(ss, original.observation_window());
  ASSERT_EQ(restored.vm_count(), original.vm_count());
  VmSizeCatalog catalog;
  for (size_t i = 0; i < original.vm_count(); ++i) {
    core::ClientInputs a = core::InputsFromVm(original.vms()[i], catalog);
    core::ClientInputs b = core::InputsFromVm(restored.vms()[i], catalog);
    ASSERT_EQ(a.subscription_id, b.subscription_id);
    ASSERT_EQ(a.vm_type, b.vm_type);
    ASSERT_EQ(a.guest_os, b.guest_os);
    ASSERT_EQ(a.role, b.role);
    ASSERT_EQ(a.cores, b.cores);
    ASSERT_EQ(a.memory_gb, b.memory_gb);
    ASSERT_EQ(a.size_index, b.size_index);
    ASSERT_EQ(a.region, b.region);
    ASSERT_EQ(a.deploy_hour, b.deploy_hour);
    ASSERT_EQ(a.deploy_dow, b.deploy_dow);
    ASSERT_EQ(a.service_id, b.service_id);
  }
}

TEST(TraceIoTest, TelemetryReplaysIdenticallyAfterRoundTrip) {
  // The whole point of serializing the latent parameters: telemetry is a
  // pure function of them, so a restored trace replays the same readings.
  Trace original = SmallTrace();
  std::stringstream ss;
  WriteVmTable(original, ss);
  Trace restored = ReadVmTable(ss, original.observation_window());
  ASSERT_EQ(restored.vm_count(), original.vm_count());
  for (size_t i = 0; i < original.vm_count(); ++i) {
    const VmRecord& a = original.vms()[i];
    const VmRecord& b = restored.vms()[i];
    for (int64_t slot = SlotIndex(a.created); slot < SlotIndex(a.created) + 20; ++slot) {
      CpuReading ra = UtilizationModel::ReadingAt(a, slot);
      CpuReading rb = UtilizationModel::ReadingAt(b, slot);
      ASSERT_EQ(ra.min_cpu, rb.min_cpu);
      ASSERT_EQ(ra.avg_cpu, rb.avg_cpu);
      ASSERT_EQ(ra.max_cpu, rb.max_cpu);
    }
  }
}

TEST(TraceIoTest, RejectsBadHeader) {
  std::stringstream ss("not,a,header\n1,2,3\n");
  EXPECT_THROW(ReadVmTable(ss, kDay), std::runtime_error);
}

TEST(TraceIoTest, RejectsTruncatedRow) {
  Trace original = SmallTrace();
  std::stringstream ss;
  WriteVmTable(original, ss);
  std::string content = ss.str();
  // Drop the tail of the last line.
  content.resize(content.size() - 40);
  std::stringstream broken(content);
  EXPECT_THROW(ReadVmTable(broken, kDay), std::exception);
}

TEST(TraceIoTest, WriteReadingsHasHeaderAndRows) {
  Trace original = SmallTrace();
  const VmRecord* long_vm = nullptr;
  for (const auto& vm : original.vms()) {
    if (vm.lifetime() > 2 * kHour) {
      long_vm = &vm;
      break;
    }
  }
  ASSERT_NE(long_vm, nullptr);
  std::stringstream ss;
  WriteReadings(*long_vm, ss);
  std::string line;
  ASSERT_TRUE(std::getline(ss, line));
  EXPECT_EQ(line, "vm_id,timestamp,min_cpu,avg_cpu,max_cpu");
  int rows = 0;
  while (std::getline(ss, line)) ++rows;
  EXPECT_EQ(rows, SlotIndex(long_vm->deleted) - SlotIndex(long_vm->created));
}

TEST(TraceIoTest, FileRoundTrip) {
  Trace original = SmallTrace();
  std::string path = ::testing::TempDir() + "/trace_io_test.csv";
  WriteVmTableFile(original, path);
  Trace restored = ReadVmTableFile(path, original.observation_window());
  EXPECT_EQ(restored.vm_count(), original.vm_count());
  EXPECT_THROW(ReadVmTableFile("/nonexistent/path.csv", kDay), std::runtime_error);
}

}  // namespace
}  // namespace rc::trace
