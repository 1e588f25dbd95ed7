// Execution-engine performance: single-example vs batched inference through
// the compiled SoA node pool, legacy AoS traversal as the baseline, on
// Table-1-sized models (RF: 48 trees x depth 14 on ~127 features; GBT: 60
// rounds on ~24 features). Reports per-call p50/p99 and examples/sec at
// batch sizes 1/8/64/512, verifies the engine hot loops allocate nothing,
// and writes the series to BENCH_exec_engine.json.
//
// --compare runs the walk-mode arms instead: scalar vs AVX2 at batch 64 on
// identical inputs, reporting per-arm rows/s, per-model pool bytes, and
// speedup vs the scalar lockstep walk, all merged into
// BENCH_exec_engine.json. The AVX2 arm is verified bit-exact against scalar
// before any timing is trusted.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table_printer.h"
#include "src/ml/exec_engine.h"
#include "src/ml/gbt.h"
#include "src/ml/random_forest.h"
#include "src/obs/export.h"

// Global allocation counter: the engine's contract is that PredictBatch
// never allocates, and a benchmark is the right place to hold it to that —
// a regression here silently re-adds the per-call malloc the engine exists
// to remove.
static std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using rc::PercentileSorted;
using rc::Rng;
using rc::TablePrinter;

constexpr const char* kBenchJson = "BENCH_exec_engine.json";

// Keep the compiler from discarding results without google-benchmark.
void benchmark_do_not_optimize(void* p) { asm volatile("" : : "g"(p) : "memory"); }

rc::ml::Dataset SyntheticDataset(size_t rows, size_t features, int classes, Rng& rng) {
  std::vector<std::string> names;
  for (size_t f = 0; f < features; ++f) names.push_back("f" + std::to_string(f));
  rc::ml::Dataset data(std::move(names));
  std::vector<double> row(features);
  for (size_t i = 0; i < rows; ++i) {
    double signal = 0.0;
    for (size_t f = 0; f < features; ++f) {
      row[f] = rng.Uniform(-5.0, 5.0);
      if (f % 5 == 0) signal += row[f];
    }
    int label = static_cast<int>(std::fabs(signal)) % classes;
    if (rng.Bernoulli(0.1)) label = static_cast<int>(rng.UniformInt(0, classes - 1));
    data.AddRow(row, label);
  }
  for (int c = 0; c < classes; ++c) {
    for (size_t f = 0; f < features; ++f) row[f] = static_cast<double>(c);
    data.AddRow(row, c);
  }
  return data;
}

std::vector<double> RandomMatrix(size_t rows, size_t features, Rng& rng) {
  std::vector<double> X(rows * features);
  for (double& v : X) v = rng.Uniform(-6.0, 6.0);
  return X;
}

struct Series {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double examples_per_sec = 0.0;
};

// Times `calls` invocations of `fn`, each covering `examples_per_call`
// examples; asserts the timed region performed zero heap allocations when
// `expect_no_alloc` (the engine paths; the legacy baseline allocates by
// design).
template <typename Fn>
Series Measure(size_t calls, size_t examples_per_call, bool expect_no_alloc,
               const std::string& what, bool& alloc_check_ok, Fn&& fn) {
  for (size_t i = 0; i < 32; ++i) fn(i);  // warm caches and arenas
  std::vector<double> micros;
  micros.reserve(calls);
  uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  auto total_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < calls; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn(i);
    auto end = std::chrono::steady_clock::now();
    micros.push_back(std::chrono::duration<double, std::micro>(end - start).count());
  }
  auto total_end = std::chrono::steady_clock::now();
  // micros.push_back above allocates at most a handful of times if reserve
  // was insufficient; it was sized exactly, so the loop's only allocations
  // are fn's own.
  uint64_t allocs = g_allocations.load(std::memory_order_relaxed) - allocs_before;
  if (expect_no_alloc && allocs != 0) {
    std::cerr << "ALLOCATION REGRESSION: " << what << " allocated " << allocs
              << " times in " << calls << " calls (expected 0)\n";
    alloc_check_ok = false;
  }
  std::sort(micros.begin(), micros.end());
  double total_s = std::chrono::duration<double>(total_end - total_start).count();
  Series s;
  s.p50_us = PercentileSorted(micros, 50.0);
  s.p99_us = PercentileSorted(micros, 99.0);
  s.examples_per_sec = static_cast<double>(calls * examples_per_call) / total_s;
  return s;
}

void Record(rc::obs::MetricsRegistry& reg, const std::string& model,
            const std::string& mode, const Series& s) {
  rc::obs::Labels labels{{"model", model}, {"mode", mode}};
  reg.GetHistogram("rc_bench_exec_engine_call_us", labels,
                   "per-call latency (us)")
      .Record(s.p50_us);
  reg.GetGauge("rc_bench_exec_engine_call_p99_us", labels, "per-call p99 (us)")
      .Set(s.p99_us);
  reg.GetGauge("rc_bench_exec_engine_examples_per_sec", labels,
               "inference throughput (examples/sec)")
      .Set(s.examples_per_sec);
}

// Runs the full single/batched/legacy grid for one model; returns the
// batch-64 vs compiled-single throughput ratio (the acceptance criterion).
template <typename Model>
double RunModel(const std::string& name, const Model& model, size_t features,
                rc::obs::MetricsRegistry& reg, TablePrinter& table, Rng& rng,
                bool& alloc_check_ok) {
  const size_t k = static_cast<size_t>(model.num_classes());
  const rc::ml::ExecEngine& engine = *model.engine();
  constexpr size_t kPool = 4096;
  std::vector<double> X = RandomMatrix(kPool, features, rng);
  std::vector<double> proba(512 * k);

  auto add_row = [&](const std::string& mode, const Series& s) {
    Record(reg, name, mode, s);
    table.AddRow({name, mode, TablePrinter::Fmt(s.p50_us, 2) + " us",
                  TablePrinter::Fmt(s.p99_us, 2) + " us",
                  TablePrinter::Fmt(s.examples_per_sec / 1000.0, 0) + " k/s"});
  };

  Series legacy = Measure(
      4000, 1, /*expect_no_alloc=*/false, name + "/legacy", alloc_check_ok,
      [&](size_t i) {
        auto p = model.PredictProbaLegacy({&X[(i % kPool) * features], features});
        benchmark_do_not_optimize(p.data());
      });
  add_row("legacy-single", legacy);

  Series single = Measure(
      4000, 1, /*expect_no_alloc=*/true, name + "/compiled-single", alloc_check_ok,
      [&](size_t i) {
        engine.PredictBatch(&X[(i % kPool) * features], 1, features, proba.data());
        benchmark_do_not_optimize(proba.data());
      });
  add_row("compiled-single", single);

  double ratio_at_64 = 0.0;
  for (size_t batch : {size_t{1}, size_t{8}, size_t{64}, size_t{512}}) {
    size_t calls = std::max<size_t>(64, 4000 / batch);
    Series s = Measure(
        calls, batch, /*expect_no_alloc=*/true,
        name + "/batch" + std::to_string(batch), alloc_check_ok, [&](size_t i) {
          size_t offset = (i * batch) % (kPool - batch + 1);
          engine.PredictBatch(&X[offset * features], batch, features, proba.data());
          benchmark_do_not_optimize(proba.data());
        });
    add_row("batch-" + std::to_string(batch), s);
    if (batch == 64) ratio_at_64 = s.examples_per_sec / single.examples_per_sec;
  }
  return ratio_at_64;
}

// --compare: per-walk-mode arms at batch 64 on identical inputs. Returns the
// avx2-vs-scalar throughput ratio (the ISSUE 8 acceptance number).
template <typename Model>
double RunCompare(const std::string& name, const Model& model, size_t features,
                  rc::obs::MetricsRegistry& reg, TablePrinter& table, Rng& rng,
                  bool& alloc_check_ok, bool& parity_ok) {
  using rc::ml::ExecEngine;
  const size_t k = static_cast<size_t>(model.num_classes());
  const ExecEngine& engine = *model.engine();
  // Pool sized to stay L2-resident (512 rows x 127 features x 8B ~ 0.5 MiB):
  // in the serving path the client featurizes a call's rows immediately
  // before PredictBatch, so inputs are cache-hot. A DRAM-sized pool would
  // make every arm memory-latency-bound and compress the ratios toward 1.0,
  // measuring the wrong regime. Distinct offsets still cycle so no single
  // batch gets pinned in L1.
  constexpr size_t kPool = 512;
  constexpr size_t kBatch = 64;
  std::vector<double> X = RandomMatrix(kPool, features, rng);
  std::vector<double> proba(kBatch * k);

  // Cross-arm parity on one deterministic batch before timing anything:
  // AVX2 must match scalar bit-for-bit (the parity suites assert this
  // exhaustively; the bench re-checks so a reported speedup can never come
  // from a wrong answer).
  {
    std::vector<double> scalar_out(kBatch * k), arm_out(kBatch * k);
    engine.PredictBatch(X.data(), kBatch, features, scalar_out.data(),
                        ExecEngine::Mode::kScalar);
    engine.PredictBatch(X.data(), kBatch, features, arm_out.data(),
                        ExecEngine::Mode::kAvx2);
    for (size_t i = 0; i < scalar_out.size(); ++i) {
      if (scalar_out[i] != arm_out[i]) {
        std::cerr << "PARITY FAILURE: avx2 arm diverged from scalar at " << i << "\n";
        parity_ok = false;
        break;
      }
    }
  }

  struct Arm {
    ExecEngine::Mode mode;
    const char* label;
  };
  const Arm arms[] = {{ExecEngine::Mode::kScalar, "scalar"},
                      {ExecEngine::Mode::kAvx2, "avx2"}};
  double scalar_rows = 0.0;
  double avx2_ratio = 0.0;
  for (const Arm& arm : arms) {
    const size_t calls = 2000;
    Series s = Measure(
        calls, kBatch, /*expect_no_alloc=*/true,
        name + "/compare-" + arm.label, alloc_check_ok, [&](size_t i) {
          size_t offset = (i * kBatch) % (kPool - kBatch + 1);
          engine.PredictBatch(&X[offset * features], kBatch, features,
                              proba.data(), arm.mode);
          benchmark_do_not_optimize(proba.data());
        });
    if (arm.mode == ExecEngine::Mode::kScalar) scalar_rows = s.examples_per_sec;
    const double speedup =
        scalar_rows > 0.0 ? s.examples_per_sec / scalar_rows : 0.0;
    if (arm.mode == ExecEngine::Mode::kAvx2) avx2_ratio = speedup;
    const size_t pool_bytes = engine.bytes();
    rc::obs::Labels labels{{"model", name}, {"arm", arm.label}};
    reg.GetGauge("rc_bench_exec_engine_compare_rows_per_sec", labels,
                 "batch-64 rows/s per walk-mode arm")
        .Set(s.examples_per_sec);
    reg.GetGauge("rc_bench_exec_engine_compare_speedup", labels,
                 "throughput vs the scalar lockstep walk")
        .Set(speedup);
    reg.GetGauge("rc_bench_exec_engine_model_bytes",
                 {{"model", name}, {"pool", "f64"}},
                 "walked pool + leaf tables (bytes)")
        .Set(static_cast<double>(pool_bytes));
    table.AddRow({name, std::string(arm.label) + " (runs " +
                            ExecEngine::ModeName(engine.Resolve(arm.mode)) + ")",
                  TablePrinter::Fmt(s.examples_per_sec / 1000.0, 0) + " k rows/s",
                  TablePrinter::Fmt(static_cast<double>(pool_bytes) / 1024.0, 0) + " KiB",
                  TablePrinter::Fmt(speedup, 2) + "x"});
  }
  return avx2_ratio;
}

int RunCompareMain() {
  rc::bench::Banner("Execution engine: scalar vs AVX2 walk",
                    "batch 64, identical inputs (DESIGN.md)");
  rc::obs::MetricsRegistry registry;
  Rng rng(42);
  bool alloc_check_ok = true;
  bool parity_ok = true;
  using rc::ml::ExecEngine;
  std::cout << "avx2 kernel available on this host: "
            << (ExecEngine::Avx2Available() ? "yes" : "no (arm runs scalar)")
            << "\n";

  constexpr size_t kRfFeatures = 127;
  rc::ml::RandomForestConfig rf_config;
  rf_config.num_trees = 48;
  rf_config.tree.max_depth = 14;
  std::cout << "training Table-1-size RF (48 trees, depth 14, " << kRfFeatures
            << " features)...\n";
  rc::ml::Dataset rf_data = SyntheticDataset(4000, kRfFeatures, 4, rng);
  rc::ml::RandomForest forest = rc::ml::RandomForest::Fit(rf_data, rf_config);

  constexpr size_t kGbtFeatures = 24;
  rc::ml::GbtConfig gbt_config;
  gbt_config.num_rounds = 60;
  std::cout << "training Table-1-size GBT (60 rounds, " << kGbtFeatures
            << " features)...\n";
  rc::ml::Dataset gbt_data = SyntheticDataset(4000, kGbtFeatures, 4, rng);
  rc::ml::GradientBoostedTrees gbt =
      rc::ml::GradientBoostedTrees::Fit(gbt_data, gbt_config);

  TablePrinter table({"model", "arm", "throughput", "pool bytes", "vs scalar"});
  double rf_ratio = RunCompare("rf", forest, kRfFeatures, registry, table, rng,
                               alloc_check_ok, parity_ok);
  double gbt_ratio = RunCompare("gbt", gbt, kGbtFeatures, registry, table, rng,
                                alloc_check_ok, parity_ok);
  table.Print(std::cout);

  std::cout << "\navx2 batch-64 vs scalar lockstep: rf "
            << TablePrinter::Fmt(rf_ratio, 2) << "x, gbt "
            << TablePrinter::Fmt(gbt_ratio, 2)
            << "x (acceptance: >= 1.5x)\n";
  std::cout << "engine hot loops: "
            << (alloc_check_ok ? "0 allocations, as designed"
                               : "ALLOCATION CHECK FAILED")
            << "; cross-arm parity: " << (parity_ok ? "ok" : "FAILED") << "\n";
  rc::obs::MergeJsonMetricsFile(kBenchJson, registry);
  std::cout << "metrics written to " << kBenchJson << "\n";
  return alloc_check_ok && parity_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--compare") return RunCompareMain();
    if (std::string(argv[i]) == "--dispatch") {
      // For scripts (tools/check_all.sh): which walk kAuto resolves to here.
      std::printf("exec-engine dispatch: %s\n",
                  rc::ml::ExecEngine::Avx2Available() ? "avx2" : "scalar");
      return 0;
    }
  }
  rc::bench::Banner("Execution engine: single vs batched inference",
                    "compiled SoA node pool (DESIGN.md)");
  rc::obs::MetricsRegistry registry;
  Rng rng(42);
  bool alloc_check_ok = true;

  // Table-1-sized Random Forest: the P95 utilization model (48 trees, depth
  // 14, expanded ~127-feature encoding).
  constexpr size_t kRfFeatures = 127;
  rc::ml::RandomForestConfig rf_config;
  rf_config.num_trees = 48;
  rf_config.tree.max_depth = 14;
  std::cout << "training Table-1-size RF (48 trees, depth 14, " << kRfFeatures
            << " features)...\n";
  rc::ml::Dataset rf_data = SyntheticDataset(4000, kRfFeatures, 4, rng);
  rc::ml::RandomForest forest = rc::ml::RandomForest::Fit(rf_data, rf_config);

  // Table-1-sized GBT: 60 rounds on the compact ~24-feature encoding.
  constexpr size_t kGbtFeatures = 24;
  rc::ml::GbtConfig gbt_config;
  gbt_config.num_rounds = 60;
  std::cout << "training Table-1-size GBT (60 rounds, " << kGbtFeatures
            << " features)...\n";
  rc::ml::Dataset gbt_data = SyntheticDataset(4000, kGbtFeatures, 4, rng);
  rc::ml::GradientBoostedTrees gbt = rc::ml::GradientBoostedTrees::Fit(gbt_data, gbt_config);

  TablePrinter table({"model", "mode", "p50/call", "p99/call", "throughput"});
  double rf_ratio =
      RunModel("rf", forest, kRfFeatures, registry, table, rng, alloc_check_ok);
  double gbt_ratio =
      RunModel("gbt", gbt, kGbtFeatures, registry, table, rng, alloc_check_ok);
  table.Print(std::cout);

  std::cout << "\nbatch-64 vs compiled-single throughput: rf " << TablePrinter::Fmt(rf_ratio, 2)
            << "x, gbt " << TablePrinter::Fmt(gbt_ratio, 2) << "x (acceptance: >= 2x)\n";
  std::cout << "engine hot loops (PredictBatch): "
            << (alloc_check_ok ? "0 allocations, as designed"
                               : "ALLOCATION CHECK FAILED")
            << "\n";

  registry.GetGauge("rc_bench_exec_engine_batch64_speedup", {{"model", "rf"}},
                    "batch-64 / compiled-single throughput")
      .Set(rf_ratio);
  registry.GetGauge("rc_bench_exec_engine_batch64_speedup", {{"model", "gbt"}},
                    "batch-64 / compiled-single throughput")
      .Set(gbt_ratio);
  rc::obs::MergeJsonMetricsFile(kBenchJson, registry);
  std::cout << "metrics written to " << kBenchJson << "\n";
  return alloc_check_ok ? 0 : 1;
}
