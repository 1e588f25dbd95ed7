// rcbench: the repository benchmark. One process runs one workload:
//
//   rcbench --workload rpc_zipf|client_mix|sched_month --seed N --seconds S
//           --trace 0|1 [--out-dir DIR] [--source ID] [--expect-sched T,F,O,P]
//
// It prints the workload's phases and metrics by name with their units, a
// host stamp line, and as its last line one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end_to_end metrics of BENCHMARK.json; with --trace 1 the per_layer ones.
// A correctness mismatch still prints the record (correct: false) and then
// exits with status 1.
#include <sys/stat.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "rcbench/common.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::cerr << "rcbench: " << why
            << "\nusage: rcbench --workload rpc_zipf|client_mix|sched_month --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--source ID] [--expect-sched T,F,O,P]\n";
  std::exit(2);
}

bool ParseInt(const char* s, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  rcbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    long long v = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, &v) || v < 0) Usage("--seed must be a non-negative integer");
      options.seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, &v) || v < 1 || v > 600) Usage("--seconds must be in [1, 600]");
      options.seconds = static_cast<int>(v);
    } else if (flag == "--trace") {
      if (!ParseInt(value, &v) || (v != 0 && v != 1)) Usage("--trace must be 0 or 1");
      options.trace = v == 1;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--source") {
      options.source_id = value;
    } else if (flag == "--expect-sched") {
      rcbench::SchedOutcome want{};
      std::istringstream in(value);
      std::string part;
      for (size_t k = 0; k < want.size(); ++k) {
        if (!std::getline(in, part, ',') || !ParseInt(part.c_str(), &v)) {
          Usage("--expect-sched takes four comma-separated integers");
        }
        want[k] = v;
      }
      options.expect_sched = want;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  mkdir(options.out_dir.c_str(), 0755);
  // The in-process server may write to a connection the load generator has
  // just replaced; that must fail the write, not end the process.
  std::signal(SIGPIPE, SIG_IGN);

  rcbench::RunRecord record;
  if (options.workload == "rpc_zipf") {
    rcbench::RunRpcZipf(options, record);
  } else if (options.workload == "client_mix") {
    rcbench::RunClientMix(options, record);
  } else if (options.workload == "sched_month") {
    rcbench::RunSchedMonth(options, record);
  } else {
    Usage("--workload must be rpc_zipf, client_mix or sched_month");
  }

  record.named.Print(options.workload + " end-to-end metrics" +
                     (options.trace ? " (traced run; not for comparison)" : ""));
  if (options.trace) record.layers.Print(options.workload + " per-layer metrics");
  std::cout << "correctness: " << record.mismatches << " mismatches against the reference\n";
  for (const std::string& m : record.mismatch_examples) std::cout << "  mismatch: " << m << "\n";
  std::cout << "{\"stamp\": " << rcbench::StampJson(options) << "}\n";
  const rcbench::MetricSet& metrics = options.trace ? record.layers : record.e2e;
  std::cout << "{\"correct\": " << (record.correct() ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(record.attempted, 1)
            << ", \"failed\": " << record.failed << ", \"metrics\": " << metrics.Json() << "}"
            << std::endl;
  return record.correct() ? 0 : 1;
}
