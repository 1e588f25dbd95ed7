#include "src/trace/trace_io.h"

#include <charconv>
#include <fstream>
#include <stdexcept>

#include "src/common/csv.h"
#include "src/common/sim_time.h"
#include "src/trace/utilization.h"

namespace rc::trace {

namespace {

const std::vector<std::string> kHeader = {
    "vm_id", "deployment_id", "subscription_id", "region", "party", "vm_type",
    "guest_os", "tag", "role_name", "service_name", "cores", "memory_gb",
    "created", "deleted", "avg_cpu", "p95_max_cpu", "class",
    // Latent generative parameters (for exact round-trip of telemetry).
    "util_seed", "util_base", "util_diurnal_amp", "util_phase_h", "util_noise_amp",
    "util_burst_amp"};

// Shortest form that parses back to the same double, so a restored trace
// carries bit-identical summaries and latent parameters.
std::string Fmt(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

Party ParseParty(const std::string& s) {
  if (s == "first") return Party::kFirst;
  if (s == "third") return Party::kThird;
  throw std::runtime_error("bad party: " + s);
}

VmType ParseVmType(const std::string& s) {
  if (s == "IaaS") return VmType::kIaas;
  if (s == "PaaS") return VmType::kPaas;
  throw std::runtime_error("bad vm_type: " + s);
}

GuestOs ParseOs(const std::string& s) {
  if (s == "Linux") return GuestOs::kLinux;
  if (s == "Windows") return GuestOs::kWindows;
  throw std::runtime_error("bad guest_os: " + s);
}

DeploymentTag ParseTag(const std::string& s) {
  if (s == "production") return DeploymentTag::kProduction;
  if (s == "non-production") return DeploymentTag::kNonProduction;
  throw std::runtime_error("bad tag: " + s);
}

// Role and service columns read leniently: a name outside the vocabulary
// reads as code 0 (IaaS / unknown service) instead of failing the file.
Role ParseRole(const std::string& s) {
  if (s == "WebRole") return Role::kWebRole;
  if (s == "WorkerRole") return Role::kWorkerRole;
  if (s == "CacheRole") return Role::kCacheRole;
  if (s == "DbRole") return Role::kDbRole;
  return Role::kIaas;
}

// "svc-N" -> N + 1 for N in the catalog; anything else (incl. "unknown",
// "svc-", signs, spaces, trailing characters and numbers out of range) -> 0.
uint8_t ParseService(const std::string& s) {
  if (s.rfind("svc-", 0) != 0) return 0;
  const char* end = s.data() + s.size();
  int n = 0;
  const auto [ptr, ec] = std::from_chars(s.data() + 4, end, n);
  if (ec != std::errc() || ptr != end || n < 0 || n >= kNumServices) return 0;
  return static_cast<uint8_t>(n + 1);
}

std::string ServiceName(uint8_t service) {
  return service == 0 ? "unknown" : "svc-" + std::to_string(service - 1);
}

WorkloadClass ParseClass(const std::string& s) {
  if (s == "Delay-insensitive") return WorkloadClass::kDelayInsensitive;
  if (s == "Interactive") return WorkloadClass::kInteractive;
  if (s == "Unknown") return WorkloadClass::kUnknown;
  throw std::runtime_error("bad class: " + s);
}

}  // namespace

void WriteVmTable(const Trace& trace, std::ostream& out) {
  CsvWriter writer(out);
  writer.WriteRow(kHeader);
  for (const auto& vm : trace.vms()) {
    writer.WriteRow({
        std::to_string(vm.vm_id), std::to_string(vm.deployment_id),
        std::to_string(vm.subscription_id), std::to_string(vm.region),
        ToString(vm.party), ToString(vm.vm_type), ToString(vm.guest_os),
        ToString(vm.tag), ToString(vm.role), ServiceName(vm.service), std::to_string(vm.cores),
        Fmt(vm.memory_gb), std::to_string(vm.created), std::to_string(vm.deleted),
        Fmt(vm.avg_cpu), Fmt(vm.p95_max_cpu), ToString(vm.true_class),
        std::to_string(vm.util.seed), Fmt(vm.util.base), Fmt(vm.util.diurnal_amp),
        Fmt(vm.util.diurnal_phase_h), Fmt(vm.util.noise_amp), Fmt(vm.util.burst_amp),
    });
  }
}

void WriteReadings(const VmRecord& vm, std::ostream& out) {
  CsvWriter writer(out);
  writer.WriteRow({"vm_id", "timestamp", "min_cpu", "avg_cpu", "max_cpu"});
  for (int64_t slot = SlotIndex(vm.created); slot < SlotIndex(vm.deleted); ++slot) {
    CpuReading r = UtilizationModel::ReadingAt(vm, slot);
    writer.WriteRow({std::to_string(vm.vm_id), std::to_string(SlotStart(slot)),
                     Fmt(r.min_cpu), Fmt(r.avg_cpu), Fmt(r.max_cpu)});
  }
}

Trace ReadVmTable(std::istream& in, SimDuration observation_window) {
  CsvReader reader(in);
  std::vector<std::string> row;
  if (!reader.ReadRow(row) || row != kHeader) {
    throw std::runtime_error("ReadVmTable: missing or mismatched header");
  }
  std::vector<VmRecord> vms;
  while (reader.ReadRow(row)) {
    if (row.size() != kHeader.size()) {
      throw std::runtime_error("ReadVmTable: wrong field count");
    }
    VmRecord vm;
    size_t i = 0;
    vm.vm_id = std::stoull(row[i++]);
    vm.deployment_id = std::stoull(row[i++]);
    vm.subscription_id = std::stoull(row[i++]);
    vm.region = std::stoi(row[i++]);
    vm.party = ParseParty(row[i++]);
    vm.vm_type = ParseVmType(row[i++]);
    vm.guest_os = ParseOs(row[i++]);
    vm.tag = ParseTag(row[i++]);
    vm.role = ParseRole(row[i++]);
    vm.service = ParseService(row[i++]);
    vm.cores = std::stoi(row[i++]);
    vm.memory_gb = std::stod(row[i++]);
    vm.created = std::stoll(row[i++]);
    vm.deleted = std::stoll(row[i++]);
    vm.avg_cpu = std::stod(row[i++]);
    vm.p95_max_cpu = std::stod(row[i++]);
    vm.true_class = ParseClass(row[i++]);
    vm.util.seed = std::stoull(row[i++]);
    vm.util.base = std::stod(row[i++]);
    vm.util.diurnal_amp = std::stod(row[i++]);
    vm.util.diurnal_phase_h = std::stod(row[i++]);
    vm.util.noise_amp = std::stod(row[i++]);
    vm.util.burst_amp = std::stod(row[i++]);
    vms.push_back(std::move(vm));
  }
  return Trace({}, std::move(vms), observation_window);
}

void WriteVmTableFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  WriteVmTable(trace, out);
}

Trace ReadVmTableFile(const std::string& path, SimDuration observation_window) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return ReadVmTable(in, observation_window);
}

}  // namespace rc::trace
