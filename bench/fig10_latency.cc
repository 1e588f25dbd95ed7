// Figure 10 + Section 6.1 performance: latency of client-side model
// execution for each metric (median and P99), result-cache hit latency, and
// simulated store access latency. google-benchmark drives steady-state
// timings; a percentile pass reproduces the figure's median/P99 series.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench/bench_common.h"
#include "src/common/stats.h"
#include "src/common/table_printer.h"
#include "src/core/client.h"
#include "src/core/evaluation.h"
#include "src/obs/export.h"

using namespace rc;
using namespace rc::core;

namespace {

// Samples recorded here are merged into BENCH_client_latency.json at exit
// (merged, not overwritten, so perf_client_caches can add its own series).
constexpr const char* kBenchJson = "BENCH_client_latency.json";

rc::obs::MetricsRegistry& BenchRegistry() {
  static rc::obs::MetricsRegistry* registry = new rc::obs::MetricsRegistry();
  return *registry;
}

struct Harness {
  trace::Trace trace;
  TrainedModels trained;
  rc::store::KvStore store;
  std::unique_ptr<Client> client;
  std::vector<ClientInputs> test_inputs;

  Harness() : trace(bench::CharacterizationTrace(30'000)) {
    core::PipelineConfig config = bench::DefaultPipelineConfig();
    OfflinePipeline pipeline(config);
    trained = pipeline.Run(trace);
    OfflinePipeline::Publish(trained, store);
    client = std::make_unique<Client>(&store, ClientConfig{});
    client->Initialize();
    static const trace::VmSizeCatalog catalog;
    for (const auto* vm : trace.VmsCreatedIn(60 * kDay, 90 * kDay)) {
      if (trained.feature_data.contains(vm->subscription_id)) {
        test_inputs.push_back(InputsFromVm(*vm, catalog));
      }
      if (test_inputs.size() >= 20'000) break;
    }
  }
};

Harness& SharedHarness() {
  static Harness* harness = new Harness();
  return *harness;
}

// Model execution on a result-cache miss (the Figure 10 series). The result
// cache is flushed every iteration batch via distinct deploy_hour rotation.
void BM_ModelExecution(benchmark::State& state) {
  Harness& h = SharedHarness();
  Metric metric = static_cast<Metric>(state.range(0));
  std::string model = MetricModelName(metric);
  Featurizer featurizer(metric, OfflinePipeline::EncodingFor(metric));
  const rc::ml::Classifier& classifier = *h.trained.models.at(model);
  std::vector<double> row(featurizer.num_features());
  std::vector<double> proba(static_cast<size_t>(classifier.num_classes()));
  size_t i = 0;
  for (auto _ : state) {
    const ClientInputs& inputs = h.test_inputs[i++ % h.test_inputs.size()];
    const auto& features = h.trained.feature_data.at(inputs.subscription_id);
    featurizer.EncodeTo(inputs, features, row);
    classifier.PredictBatch(row.data(), 1, row.size(), proba.data());
    auto scored = rc::ml::Argmax(proba);
    benchmark::DoNotOptimize(scored);
  }
  state.SetLabel(MetricName(metric));
}
BENCHMARK(BM_ModelExecution)->DenseRange(0, kNumMetrics - 1)->Unit(benchmark::kMicrosecond);

// Result-cache hit (paper: P99 ~1.3us — a key hash plus a table lookup).
void BM_ResultCacheHit(benchmark::State& state) {
  Harness& h = SharedHarness();
  const ClientInputs& inputs = h.test_inputs.front();
  h.client->PredictSingle("VM_AVGUTIL", inputs);  // prime
  for (auto _ : state) {
    auto p = h.client->PredictSingle("VM_AVGUTIL", inputs);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_ResultCacheHit)->Unit(benchmark::kMicrosecond);

// Store access with the paper-calibrated latency profile (median 2.9 ms /
// P99 5.6 ms for an ~850-byte record).
void BM_StoreAccess(benchmark::State& state) {
  rc::store::KvStore::Options options;
  options.simulate_latency = true;
  rc::store::KvStore slow_store(options);
  slow_store.Put("features/1", std::vector<uint8_t>(850, 7));
  for (auto _ : state) {
    auto blob = slow_store.Get("features/1");
    benchmark::DoNotOptimize(blob);
  }
}
BENCHMARK(BM_StoreAccess)->Unit(benchmark::kMillisecond);

void PrintPercentileTable() {
  Harness& h = SharedHarness();
  bench::Banner("Figure 10: model execution latency percentiles", "Fig. 10");
  TablePrinter table({"Metric", "median", "P99"});
  constexpr int kCalls = 4000;
  for (Metric metric : kAllMetrics) {
    std::string model = MetricModelName(metric);
    Featurizer featurizer(metric, OfflinePipeline::EncodingFor(metric));
    rc::obs::Histogram& hist = BenchRegistry().GetHistogram(
        "rc_bench_model_execution_us", {{"metric", MetricName(metric)}},
        "featurize + model execute latency (us)");
    std::vector<double> micros;
    micros.reserve(kCalls);
    const rc::ml::Classifier& classifier = *h.trained.models.at(model);
    std::vector<double> row(featurizer.num_features());
    std::vector<double> proba(static_cast<size_t>(classifier.num_classes()));
    for (int i = 0; i < kCalls; ++i) {
      const ClientInputs& inputs = h.test_inputs[static_cast<size_t>(i) % h.test_inputs.size()];
      auto start = std::chrono::steady_clock::now();
      featurizer.EncodeTo(inputs, h.trained.feature_data.at(inputs.subscription_id), row);
      classifier.PredictBatch(row.data(), 1, row.size(), proba.data());
      auto scored = rc::ml::Argmax(proba);
      benchmark::DoNotOptimize(scored);
      auto end = std::chrono::steady_clock::now();
      double us = std::chrono::duration<double, std::micro>(end - start).count();
      hist.Record(us);
      micros.push_back(us);
    }
    std::sort(micros.begin(), micros.end());
    table.AddRow({MetricName(metric),
                  TablePrinter::Fmt(PercentileSorted(micros, 50.0), 1) + " us",
                  TablePrinter::Fmt(PercentileSorted(micros, 99.0), 1) + " us"});
  }
  table.Print(std::cout);
  std::cout << "\npaper anchors: medians 95-147 us, P99s 139-258 us; cache hits ~1.3 us\n"
            << "P99; store accesses 2.9 ms median / 5.6 ms P99 (simulated to match)\n\n";
}

// Result-cache hit latency through the full client (the ~1.3us path),
// recorded into the bench registry so the JSON export carries its p50/p99.
void RecordResultCacheHitLatency() {
  Harness& h = SharedHarness();
  rc::obs::Histogram& hist = BenchRegistry().GetHistogram(
      "rc_bench_result_cache_hit_us", {}, "PredictSingle result-cache hit (us)");
  const ClientInputs& inputs = h.test_inputs.front();
  h.client->PredictSingle("VM_AVGUTIL", inputs);  // prime
  for (int i = 0; i < 4000; ++i) {
    auto start = std::chrono::steady_clock::now();
    auto p = h.client->PredictSingle("VM_AVGUTIL", inputs);
    benchmark::DoNotOptimize(p);
    auto end = std::chrono::steady_clock::now();
    hist.Record(std::chrono::duration<double, std::micro>(end - start).count());
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintPercentileTable();
  RecordResultCacheHitLatency();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Machine-readable latency summary: bench series plus the harness client's
  // own rc_client_* instruments (sampled predict latency, store reads).
  rc::obs::MergeJsonMetricsFile(kBenchJson, BenchRegistry());
  rc::obs::MergeJsonMetricsFile(kBenchJson, SharedHarness().client->metrics());
  std::cout << "metrics written to " << kBenchJson << "\n";
  return 0;
}
