// rc_trace_gen: generates a calibrated synthetic Azure-like VM trace and
// writes it as CSV (AzurePublicDataset-style vmtable). Optionally also dumps
// per-slot utilization readings for selected VMs.
//
//   rc_trace_gen --vms 50000 --days 90 --seed 42 --out trace.csv
//   rc_trace_gen --vms 1000 --readings-for 17 --out trace.csv
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "src/trace/trace_io.h"
#include "src/trace/workload_model.h"
#include "tools/int_flag.h"

namespace {

void Usage() {
  std::cerr <<
      "usage: rc_trace_gen [options]\n"
      "  --vms N            target VM count (default 50000)\n"
      "  --days D           observation window in days (default 90)\n"
      "  --subs N           subscription count (default vms/25)\n"
      "  --seed S           RNG seed (default 42)\n"
      "  --first-party F    fraction of first-party VMs (default 0.55)\n"
      "  --out PATH         vmtable CSV output (default rc_trace.csv)\n"
      "  --readings-for ID  also write <out>.readings.<ID>.csv with the\n"
      "                     5-minute telemetry of that VM\n";
}

}  // namespace

int main(int argc, char** argv) {
  rc::trace::WorkloadConfig config;
  config.target_vm_count = 50'000;
  std::string out = "rc_trace.csv";
  int subs = -1;
  uint64_t readings_for = 0;
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  constexpr long long kI64Max = std::numeric_limits<int64_t>::max();

  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto int_flag = [&](const char* flag, long long lo, long long hi) {
      return rc::tools::ParseIntFlag(flag, need(flag), lo, hi);
    };
    if (std::strcmp(argv[i], "--vms") == 0) {
      config.target_vm_count = int_flag("--vms", 1, kI64Max);
    } else if (std::strcmp(argv[i], "--days") == 0) {
      config.duration = int_flag("--days", 1, kIntMax) * rc::kDay;
    } else if (std::strcmp(argv[i], "--subs") == 0) {
      subs = static_cast<int>(int_flag("--subs", 1, kIntMax));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      config.seed = static_cast<uint64_t>(int_flag("--seed", 0, kI64Max));
    } else if (std::strcmp(argv[i], "--first-party") == 0) {
      config.frac_first_party = std::atof(need("--first-party"));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out = need("--out");
    } else if (std::strcmp(argv[i], "--readings-for") == 0) {
      readings_for = static_cast<uint64_t>(int_flag("--readings-for", 0, kI64Max));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage();
      return 0;
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      Usage();
      return 2;
    }
  }
  config.num_subscriptions =
      subs > 0 ? subs : std::max<int>(100, static_cast<int>(config.target_vm_count / 25));

  std::cerr << "generating " << config.target_vm_count << " VMs / "
            << config.num_subscriptions << " subscriptions over "
            << config.duration / rc::kDay << " days (seed " << config.seed << ")...\n";
  rc::trace::Trace trace = rc::trace::WorkloadModel(config).Generate();
  rc::trace::WriteVmTableFile(trace, out);
  std::cerr << "wrote " << trace.vm_count() << " rows to " << out << "\n";

  if (readings_for != 0) {
    for (const auto& vm : trace.vms()) {
      if (vm.vm_id != readings_for) continue;
      std::string rpath = out + ".readings." + std::to_string(readings_for) + ".csv";
      std::ofstream rout(rpath);
      rc::trace::WriteReadings(vm, rout);
      std::cerr << "wrote telemetry of VM " << readings_for << " to " << rpath << "\n";
      return 0;
    }
    std::cerr << "VM " << readings_for << " not found in the trace\n";
    return 1;
  }
  return 0;
}
