// Section 6.1 "Performance": result-cache hit rates when replaying the test
// month through the client (paper: 18-68 hits per model execution depending
// on the metric), cache-management micro-benchmarks, and a multi-threaded
// throughput mode exercising the lock-free snapshot hot path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <latch>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "src/cache/sharded_cache.h"
#include "src/common/hashing.h"
#include "src/common/table_printer.h"
#include "src/core/client.h"
#include "src/obs/export.h"

using namespace rc;
using namespace rc::core;

namespace {

// Shared with fig10_latency: series are merged into the same file.
constexpr const char* kBenchJson = "BENCH_client_latency.json";

rc::obs::MetricsRegistry& BenchRegistry() {
  static rc::obs::MetricsRegistry* registry = new rc::obs::MetricsRegistry();
  return *registry;
}

// rc::cache arms (policy / probe / store sharding) land in their own file.
constexpr const char* kCacheBenchJson = "BENCH_cache.json";

rc::obs::MetricsRegistry& CacheBenchRegistry() {
  static rc::obs::MetricsRegistry* registry = new rc::obs::MetricsRegistry();
  return *registry;
}

struct Harness {
  trace::Trace trace;
  rc::store::KvStore store;
  std::vector<ClientInputs> replay;

  Harness() : trace(bench::CharacterizationTrace(30'000)) {
    OfflinePipeline pipeline(bench::DefaultPipelineConfig());
    TrainedModels trained = pipeline.Run(trace);
    OfflinePipeline::Publish(trained, store);
    static const trace::VmSizeCatalog catalog;
    for (const auto* vm : trace.VmsCreatedIn(60 * kDay, 90 * kDay)) {
      replay.push_back(InputsFromVm(*vm, catalog));
    }
  }
};

Harness& SharedHarness() {
  static Harness* harness = new Harness();
  return *harness;
}

void PrintHitRateTable() {
  bench::Banner("Section 6.1 performance: result-cache effectiveness", "Sec. 6.1");
  Harness& h = SharedHarness();
  TablePrinter table({"Model", "requests", "hits", "executions", "hits/execution",
                      "no-predictions"});
  for (Metric m : kAllMetrics) {
    Client client(&h.store, ClientConfig{});
    client.Initialize();
    std::string model = MetricModelName(m);
    for (const auto& inputs : h.replay) client.PredictSingle(model, inputs);
    auto stats = client.stats();
    double per_exec = stats.model_executions > 0
                          ? static_cast<double>(stats.result_hits) /
                                static_cast<double>(stats.model_executions)
                          : 0.0;
    table.AddRow({model, std::to_string(h.replay.size()), std::to_string(stats.result_hits),
                  std::to_string(stats.model_executions), TablePrinter::Fmt(per_exec, 1),
                  std::to_string(stats.no_predictions)});
  }
  table.Print(std::cout);
  std::cout << "\npaper anchor: an entry is reused 18-68 times per model execution\n"
            << "(reuse grows with trace length; a month-long replay is the lower end)\n\n";
}

// Predictions/sec at 1/2/4/8 threads over a warm result cache, with and
// without a concurrent pusher republishing one subscription's feature data
// (push-listener state swaps + a generation bump that stales that
// subscription's cached results). The client serializes on no global
// lock on this path, so throughput should scale with the thread count.
void PrintThreadScalingTable() {
  bench::Banner("Client concurrency: prediction throughput vs threads",
                "Sec. 4 / Table 2 (thread-safe client DLL)");
  Harness& h = SharedHarness();
  // A working set small enough to stay result-cache resident.
  std::vector<ClientInputs> working_set(h.replay.begin(),
                                        h.replay.begin() + std::min<size_t>(256, h.replay.size()));
  constexpr int kItersPerThread = 200'000;

  auto run = [&](int num_threads, bool with_pusher) {
    Client client(&h.store, ClientConfig{});
    client.Initialize();
    // Warm the result cache once so the measured path is the sharded-cache hit.
    for (const auto& inputs : working_set) client.PredictSingle("VM_P95UTIL", inputs);

    std::latch start(num_threads + 1 + (with_pusher ? 1 : 0));
    std::atomic<bool> stop{false};
    std::thread pusher;
    if (with_pusher) {
      pusher = std::thread([&] {
        uint64_t subscription = working_set[0].subscription_id;
        auto blob = h.store.Get(rc::core::FeatureKey(subscription));
        start.arrive_and_wait();
        while (!stop.load(std::memory_order_relaxed)) {
          if (blob) h.store.Put(rc::core::FeatureKey(subscription), blob->data);
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      });
    }
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (int t = 0; t < num_threads; ++t) {
      workers.emplace_back([&, t] {
        start.arrive_and_wait();
        size_t i = static_cast<size_t>(t) * 37;  // decorrelate thread walks
        for (int iter = 0; iter < kItersPerThread; ++iter) {
          auto p = client.PredictSingle("VM_P95UTIL", working_set[i++ % working_set.size()]);
          benchmark::DoNotOptimize(p);
        }
      });
    }
    start.arrive_and_wait();
    auto begin = std::chrono::steady_clock::now();
    for (auto& w : workers) w.join();
    auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin);
    stop = true;
    if (pusher.joinable()) pusher.join();
    return static_cast<double>(num_threads) * kItersPerThread / elapsed.count();
  };

  TablePrinter table({"threads", "preds/sec (warm)", "speedup", "preds/sec (w/ pusher)"});
  double base = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    double warm = run(threads, /*with_pusher=*/false);
    double pushed = run(threads, /*with_pusher=*/true);
    if (threads == 1) base = warm;
    std::string threads_label = std::to_string(threads);
    BenchRegistry()
        .GetGauge("rc_bench_predict_throughput_per_sec",
                  {{"threads", threads_label}, {"pusher", "no"}},
                  "warm result-cache hit throughput")
        .Set(warm);
    BenchRegistry()
        .GetGauge("rc_bench_predict_throughput_per_sec",
                  {{"threads", threads_label}, {"pusher", "yes"}})
        .Set(pushed);
    table.AddRow({threads_label, TablePrinter::Fmt(warm, 0),
                  TablePrinter::Fmt(warm / base, 2) + "x", TablePrinter::Fmt(pushed, 0)});
  }
  table.Print(std::cout);
  unsigned hw = std::thread::hardware_concurrency();
  std::cout << "\nhot path: sharded result-cache hit; no global lock taken.\n"
            << "pusher column: a concurrent writer republishes one subscription's\n"
            << "feature data (snapshot swap + generation bump) every 500us.\n"
            << "hardware threads: " << hw
            << (hw < 4 ? "  (scaling is core-bound on this machine; flat\n"
                         "throughput under oversubscription still indicates a\n"
                         "contention-free hot path)"
                       : "")
            << "\n\n";
}

// ===========================================================================
// rc::cache arms: admission policy quality, lock-free probe latency, global
// vs sharded store throughput. Everything below writes into
// CacheBenchRegistry() -> BENCH_cache.json.
// ===========================================================================

// Replica of the pre-rc::cache result cache: 16 mutex-guarded unordered_map
// shards, each FLUSHED when it reaches capacity. Kept here (not in src/) as
// the historical control arm.
class LegacyFlushCache {
 public:
  explicit LegacyFlushCache(size_t capacity)
      : shard_capacity_(std::max<size_t>(1, capacity / kShards)) {}

  bool Lookup(uint64_t key, uint64_t* out) {
    Shard& s = shards_[HashU64(key) & (kShards - 1)];
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    *out = it->second;
    return true;
  }

  void Insert(uint64_t key, uint64_t value) {
    Shard& s = shards_[HashU64(key) & (kShards - 1)];
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.map.size() >= shard_capacity_) s.map.clear();  // the old behavior
    s.map.emplace(key, value);
  }

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, uint64_t> map;
  };
  size_t shard_capacity_;
  std::array<Shard, kShards> shards_;
};

// Zipf(s) sampler over [0, n): precomputed CDF + binary search (same shape
// as perf_net.cc's and the admission test's).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += 1.0 / std::pow(double(i + 1), s);
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(double(i + 1), s) / sum;
      cdf_[i] = acc;
    }
  }

  uint64_t Sample(std::mt19937_64& rng) const {
    const double u = double(rng() >> 11) * 0x1.0p-53;
    size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) lo = mid + 1; else hi = mid;
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

// The adversarial replay: Zipf(1.0) bursts alternating with a sequential
// scan over a fixed region slightly larger than the cache (LRU's worst
// case; see tests/cache/admission_test.cc for the full rationale).
std::vector<uint64_t> CacheZipfScanTrace() {
  std::mt19937_64 rng(42);
  ZipfSampler zipf(16384, 1.0);
  std::vector<uint64_t> trace;
  trace.reserve(120'000);
  for (int i = 0; i < 10'000; ++i) trace.push_back(zipf.Sample(rng));
  for (int block = 0; block < 25; ++block) {
    for (int i = 0; i < 2'000; ++i) trace.push_back(zipf.Sample(rng));
    for (uint64_t i = 0; i < 2'200; ++i) trace.push_back(1'000'000 + i);
  }
  return trace;
}

// Hit rate + single-thread ns/op per admission-policy arm on the Zipf+scan
// replay. The acceptance bar: W-TinyLFU >= legacy flush + 10 points.
void PrintCachePolicyTable() {
  bench::Banner("rc::cache admission policy: Zipf(1.0)+scan replay",
                "ISSUE 10 (W-TinyLFU vs LRU vs legacy flush-on-overflow)");
  const std::vector<uint64_t> trace = CacheZipfScanTrace();
  constexpr size_t kCapacity = 2048;

  auto record = [&](const char* policy, double hit_rate, double ns_per_op) {
    CacheBenchRegistry()
        .GetGauge("rc_bench_cache_hit_rate", {{"policy", policy}},
                  "Zipf+scan replay hit rate by admission policy")
        .Set(hit_rate);
    CacheBenchRegistry()
        .GetGauge("rc_bench_cache_ns_per_op", {{"policy", policy}},
                  "single-thread lookup+insert cost on the replay")
        .Set(ns_per_op);
  };

  TablePrinter table({"policy", "hit rate", "ns/op", "vs legacy"});
  double legacy_rate = 0.0;
  // Arm 1: the old flush-on-overflow cache.
  {
    LegacyFlushCache cache(kCapacity);
    uint64_t hits = 0;
    auto begin = std::chrono::steady_clock::now();
    for (uint64_t key : trace) {
      uint64_t out;
      if (cache.Lookup(key, &out)) ++hits; else cache.Insert(key, key);
    }
    auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin);
    legacy_rate = double(hits) / double(trace.size());
    const double ns = elapsed.count() * 1e9 / double(trace.size());
    record("legacy_flush", legacy_rate, ns);
    table.AddRow({"legacy flush", TablePrinter::Fmt(100 * legacy_rate, 1) + "%",
                  TablePrinter::Fmt(ns, 0), "--"});
  }
  // Arms 2+3: rc::cache with admission off (plain LRU) and on (W-TinyLFU).
  for (bool admission : {false, true}) {
    rc::cache::CacheOptions options;
    options.capacity = kCapacity;
    options.shards = 16;
    options.admission = admission;
    rc::cache::Word2Cache cache(options);
    uint64_t hits = 0;
    auto begin = std::chrono::steady_clock::now();
    for (uint64_t key : trace) {
      uint64_t out[2];
      if (cache.Lookup(key, out)) {
        ++hits;
      } else {
        const uint64_t value[2] = {key, ~key};
        cache.Insert(key, value, cache.epoch());
      }
    }
    auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin);
    const double rate = double(hits) / double(trace.size());
    const double ns = elapsed.count() * 1e9 / double(trace.size());
    record(admission ? "wtinylfu" : "lru", rate, ns);
    table.AddRow({admission ? "W-TinyLFU" : "LRU (admission off)",
                  TablePrinter::Fmt(100 * rate, 1) + "%", TablePrinter::Fmt(ns, 0),
                  TablePrinter::Fmt(100 * (rate - legacy_rate), 1) + " pts"});
  }
  table.Print(std::cout);
  std::cout << "\nacceptance bar: W-TinyLFU >= legacy flush + 10 points.\n\n";
}

// Lock-free probe: 4 reader threads over a warm cache, per-op cost sampled
// in 64-op batches; p50/p99 of the batch means. (The locked-probe control
// arm measured against it is recorded in EXPERIMENTS.md.)
void PrintProbeLatencyTable() {
  bench::Banner("rc::cache probe path: lock-free (seqlock)",
                "zero mutex acquisitions on hit");
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1 << 20;
  constexpr int kBatch = 64;

  rc::cache::CacheOptions options;
  options.capacity = 4096;
  options.shards = 16;
  rc::cache::Word2Cache cache(options);
  for (uint64_t k = 0; k < 1024; ++k) {
    const uint64_t value[2] = {k, ~k};
    cache.Insert(k, value, cache.epoch());
  }
  std::vector<std::vector<double>> samples(kThreads);
  std::latch start(kThreads + 1);
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      samples[t].reserve(kOpsPerThread / kBatch);
      std::mt19937_64 rng(1000 + t);
      start.arrive_and_wait();
      uint64_t out[2];
      for (int i = 0; i < kOpsPerThread / kBatch; ++i) {
        auto begin = std::chrono::steady_clock::now();
        for (int b = 0; b < kBatch; ++b) {
          bool hit = cache.Lookup(rng() % 1024, out);
          benchmark::DoNotOptimize(hit);
          benchmark::DoNotOptimize(out);
        }
        auto elapsed = std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - begin);
        samples[t].push_back(elapsed.count() / kBatch);
      }
    });
  }
  start.arrive_and_wait();
  auto begin = std::chrono::steady_clock::now();
  for (auto& th : readers) th.join();
  auto wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin);
  std::vector<double> all;
  for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  const double p50 = all[all.size() / 2];
  const double p99 = all[all.size() * 99 / 100];
  const double mops = double(kThreads) * kOpsPerThread / wall.count() / 1e6;

  CacheBenchRegistry().GetGauge("rc_bench_cache_probe_ns",
                                {{"arm", "lockfree"}, {"stat", "p50"}},
                                "warm-hit probe latency (batch-mean ns)")
      .Set(p50);
  CacheBenchRegistry()
      .GetGauge("rc_bench_cache_probe_ns", {{"arm", "lockfree"}, {"stat", "p99"}})
      .Set(p99);
  CacheBenchRegistry().GetGauge("rc_bench_cache_probe_mops", {{"arm", "lockfree"}},
                                "aggregate warm-hit lookup throughput (M ops/s)")
      .Set(mops);
  TablePrinter table({"probe arm", "p50 ns", "p99 ns", "lookups/sec (4 thr)"});
  table.AddRow({"lock-free (seqlock)", TablePrinter::Fmt(p50, 1),
                TablePrinter::Fmt(p99, 1), TablePrinter::Fmt(mops * 1e6, 0)});
  table.Print(std::cout);
  std::cout << "\n";
}

// Global-mutex (shards=1) vs sharded (shards=16) KvStore under concurrent
// multi-model load: 8 threads each re-reading its own model blobs, the
// publish-heavy-window pattern from the ISSUE. Bar: sharded >= 1.5x.
void PrintStoreShardingTable() {
  bench::Banner("KvStore sharding: concurrent multi-model load",
                "ISSUE 10 (global mutex vs hash-sharded store)");
  constexpr int kThreads = 8;
  constexpr int kGetsPerThread = 30'000;
  constexpr int kModels = 16;

  auto run = [&](size_t shards) {
    rc::store::KvStore::Options options;
    options.shards = shards;
    rc::store::KvStore store(options);
    // 850-byte records: the paper's measured median model/feature blob.
    for (int i = 0; i < kModels; ++i) {
      store.Put("model/" + std::to_string(i), std::vector<uint8_t>(850, uint8_t(i)));
    }
    std::vector<std::string> keys;
    keys.reserve(kModels);
    for (int i = 0; i < kModels; ++i) keys.push_back("model/" + std::to_string(i));
    std::latch start(kThreads + 1);
    std::vector<std::thread> loaders;
    loaders.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      loaders.emplace_back([&, t] {
        start.arrive_and_wait();
        for (int i = 0; i < kGetsPerThread; ++i) {
          auto blob = store.Get(keys[(t * 7 + i) % kModels]);
          benchmark::DoNotOptimize(blob);
        }
      });
    }
    start.arrive_and_wait();
    auto begin = std::chrono::steady_clock::now();
    for (auto& th : loaders) th.join();
    auto wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin);
    return double(kThreads) * kGetsPerThread / wall.count();
  };

  TablePrinter table({"store arm", "loads/sec (8 thr)", "speedup"});
  const double global = run(1);
  const double sharded = run(16);
  CacheBenchRegistry().GetGauge("rc_bench_store_mload_per_sec", {{"shards", "1"}},
                                "concurrent multi-model Get throughput")
      .Set(global);
  CacheBenchRegistry()
      .GetGauge("rc_bench_store_mload_per_sec", {{"shards", "16"}})
      .Set(sharded);
  CacheBenchRegistry().GetGauge("rc_bench_store_mload_speedup", {},
                                "sharded vs global-mutex store")
      .Set(sharded / global);
  const unsigned cores = std::thread::hardware_concurrency();
  CacheBenchRegistry().GetGauge("rc_bench_store_hw_threads", {},
                                "hardware threads during the store benchmark")
      .Set(double(cores));
  table.AddRow({"global mutex (shards=1)", TablePrinter::Fmt(global, 0), "--"});
  table.AddRow({"sharded (shards=16)", TablePrinter::Fmt(sharded, 0),
                TablePrinter::Fmt(sharded / global, 2) + "x"});
  table.Print(std::cout);
  std::cout << "\nacceptance bar: sharded >= 1.5x the global-mutex arm"
            << " (multi-core hosts).\nhardware threads: " << cores << "\n";
  if (cores < 2) {
    std::cout << "NOTE: single-core host -- threads time-slice, so sharding\n"
              << "cannot exceed 1x here; parity (no regression) is the\n"
              << "single-core expectation. Re-run on a multi-core host for\n"
              << "the speedup bar.\n";
  }
  std::cout << "\n";
}

void BM_PredictWarm(benchmark::State& state) {
  Harness& h = SharedHarness();
  Client client(&h.store, ClientConfig{});
  client.Initialize();
  size_t i = 0;
  for (auto _ : state) {
    auto p = client.PredictSingle("VM_P95UTIL", h.replay[i++ % h.replay.size()]);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PredictWarm)->Unit(benchmark::kMicrosecond);

void BM_ForceReloadCache(benchmark::State& state) {
  Harness& h = SharedHarness();
  Client client(&h.store, ClientConfig{});
  client.Initialize();
  for (auto _ : state) {
    client.ForceReloadCache();
  }
}
BENCHMARK(BM_ForceReloadCache)->Unit(benchmark::kMillisecond);

void BM_ClientInitialize(benchmark::State& state) {
  Harness& h = SharedHarness();
  for (auto _ : state) {
    Client client(&h.store, ClientConfig{});
    bool ok = client.Initialize();
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ClientInitialize)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintHitRateTable();
  PrintThreadScalingTable();
  PrintCachePolicyTable();
  PrintProbeLatencyTable();
  PrintStoreShardingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  rc::obs::MergeJsonMetricsFile(kBenchJson, BenchRegistry());
  rc::obs::MergeJsonMetricsFile(kCacheBenchJson, CacheBenchRegistry());
  std::cout << "metrics written to " << kBenchJson << " and " << kCacheBenchJson
            << "\n";
  return 0;
}
