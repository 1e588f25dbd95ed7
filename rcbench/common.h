// Shared pieces of the rcbench benchmark: result records, order statistics,
// the in-memory span log, seeded input generation, the six-model set-up used
// by rpc_zipf and client_mix, and the cache-off reference oracle.
//
// The benchmark drives the program only through its public API; nothing here
// reaches into src/ beyond what a client of the library could call.
#ifndef RCBENCH_COMMON_H_
#define RCBENCH_COMMON_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/obs/metrics.h"
#include "src/store/kv_store.h"
#include "src/trace/trace.h"

namespace rcbench {

inline uint64_t NowNs() { return rc::obs::NowNs(); }
inline double SecondsBetween(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// The recorded sched_month outcome for one seed: total VMs, failures,
// readings above 100% and oversubscribed placements.
using SchedOutcome = std::array<int64_t, 4>;

struct Options {
  std::string workload;
  uint64_t seed = 42;
  int seconds = 10;
  bool trace = false;
  // Where span dumps and the run record go (inside the checkout).
  std::string out_dir = ".bench_build/rcbench-out";
  // Identity of the measured source tree (git sha or a content digest).
  std::string source_id = "unknown";
  std::optional<SchedOutcome> expect_sched;
};

// Name -> (value, unit), rendered in name order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool empty() const { return entries_.empty(); }
  std::string Json() const;
  // One "name = value unit" line per metric.
  void Print(const std::string& title) const;

 private:
  std::map<std::string, std::pair<double, std::string>> entries_;
};

struct RunRecord {
  MetricSet e2e;     // end_to_end metrics, by their BENCHMARK.json names
  MetricSet named;   // the workload's own end-to-end metrics, by workload name
  MetricSet layers;  // per_layer metrics (traced run only)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> mismatch_examples;

  void Mismatch(const std::string& what);
  bool correct() const { return mismatches == 0; }
};

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Zipf(s) over [0, n) through a precomputed CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t operator()(rc::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// A random permutation of [0, n): maps popularity ranks to input indices so
// the hottest keys are not simply the first VMs of the trace.
std::vector<uint32_t> Permutation(size_t n, rc::Rng& rng);

// One traced interval. Spans of one request share `request_id`; `parent` is
// the id of the enclosing span (0 for a root).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Per-name totals: count, summed duration and summed self time (duration
// minus the part of the interval covered by child spans).
struct SpanStat {
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::vector<double> durations_us;
};
std::map<std::string, SpanStat> SummarizeSpans(const std::vector<Span>& spans);
void PrintSpanSummary(const std::map<std::string, SpanStat>& summary);
// Writes the spans as a JSON array; false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

double PeakRssMb();

// Host stamp printed with every result record.
std::string StampJson(const Options& options);

// The Section-3 characterization workload (three months, mixed parties) and
// the six trained models published to a store: the set-up shared by
// rpc_zipf and client_mix.
struct SixModels {
  rc::trace::Trace trace;
  rc::core::TrainedModels trained;
  std::unique_ptr<rc::store::KvStore> store;
  double trace_gen_s = 0.0;
  double train_s = 0.0;
  double publish_s = 0.0;
};
SixModels BuildSixModels(uint64_t seed);

// Names of the six served models, in kAllMetrics order.
std::vector<std::string> AllModelNames();

// Answers of a single-threaded client with the result cache off, indexed
// [model * keys.size() + key]. This is the cache-on vs cache-off oracle.
std::vector<rc::core::Prediction> ReferenceAnswers(
    rc::store::KvStore& store, const std::vector<std::string>& models,
    const std::vector<rc::core::ClientInputs>& keys);

// Useful-outcome ratios of a client over a run, from stats() deltas:
// result-cache hit share and no-prediction share of all lookups, and hits
// per model execution.
struct ClientShares {
  double hit_share = 0.0;
  double none_share = 0.0;
  double hits_per_exec = 0.0;
};
ClientShares SharesBetween(const rc::core::ClientStats& before, const rc::core::ClientStats& after);
// Prints the workload's measured property shares (the workload record) and,
// in a traced run, stores the client shares as per_layer metrics.
void ReportShares(const ClientShares& shares, double many_share, RunRecord& record, bool traced);

bool SamePrediction(const rc::core::Prediction& a, const rc::core::Prediction& b);
std::string Describe(const rc::core::Prediction& p);

// Sum of counters named `name` (any labels) in `registry`.
uint64_t CounterTotal(const rc::obs::MetricsRegistry& registry, const std::string& name);
// Lifetime snapshot of histogram `name` (first label set found); empty when
// absent.
rc::obs::Histogram::Snapshot HistogramSnapshot(const rc::obs::MetricsRegistry& registry,
                                               const std::string& name);

// Everything the isolated per-layer probes need from a workload: its store,
// its warm client, the models it serves and its inputs.
struct ProbeContext {
  rc::store::KvStore* store = nullptr;
  rc::core::Client* client = nullptr;
  std::vector<std::string> models;
  std::vector<rc::core::ClientInputs> inputs;  // the workload's key stream inputs
  const std::unordered_map<uint64_t, rc::core::SubscriptionFeatures>* features = nullptr;
  std::map<std::string, const rc::ml::Classifier*> classifiers;
};
// Times the benchmark's own calls into each module's public functions and
// fills the isolated-probe per_layer metrics.
void RunLayerProbes(const ProbeContext& context, MetricSet& layers);

// Zeroes every per_layer metric in `names`; a workload then overwrites the
// ones its layers exercise. Metrics a workload has no work for stay 0.
void ZeroLayers(MetricSet& layers);

// The workloads. Each fills `record` and returns normally; a correctness
// mismatch is recorded in `record`, never thrown.
void RunRpcZipf(const Options& options, RunRecord& record);
void RunClientMix(const Options& options, RunRecord& record);
void RunSchedMonth(const Options& options, RunRecord& record);

}  // namespace rcbench

#endif  // RCBENCH_COMMON_H_
