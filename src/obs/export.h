// rc::obs exporters: Prometheus-style text exposition, a JSON snapshot, and
// a JSON metrics file that several bench binaries can merge into.
//
// Both exporters render a RegistrySnapshot, so they can be pointed at the
// process-wide registry or any privately owned one (e.g. a Client's).
// Output is deterministic for a given snapshot: series sorted by name, then
// labels; doubles formatted with up to 10 significant digits.
#ifndef RC_SRC_OBS_EXPORT_H_
#define RC_SRC_OBS_EXPORT_H_

#include <string>

#include "src/obs/metrics.h"

namespace rc::obs {

// Prometheus text exposition (# HELP / # TYPE, histograms as cumulative
// `_bucket{le=...}` series plus `_sum` / `_count`).
std::string PrometheusText(const RegistrySnapshot& snapshot);
std::string PrometheusText(const MetricsRegistry& registry);

// JSON snapshot: {"metrics": {"name{labels}": {...}, ...}}. Histograms carry
// count/sum/mean and the p50/p95/p99/p999 extraction.
std::string JsonText(const RegistrySnapshot& snapshot);
std::string JsonText(const MetricsRegistry& registry);

// Merges the registry's JSON snapshot into an existing JSON metrics file:
// entries under "metrics" keep their old value unless this snapshot carries
// the same series. An absent or unparseable file is simply overwritten. The
// file is replaced atomically (temp file + rename), so concurrent readers
// never observe a torn snapshot; false on I/O failure. Lets several bench
// binaries accumulate into one BENCH_*.json.
bool MergeJsonMetricsFile(const std::string& path, const MetricsRegistry& registry);

}  // namespace rc::obs

#endif  // RC_SRC_OBS_EXPORT_H_
