// Isolated per-layer probes for the traced run. Each probe times the
// benchmark's own calls into one module's public functions on the
// workload's inputs; none of them runs in the untimed end-to-end runs.
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <latch>
#include <span>
#include <thread>
#include <unordered_set>

#include "rcbench/common.h"
#include "src/cache/sharded_cache.h"
#include "src/core/featurizer.h"
#include "src/ml/exec_engine.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"

namespace rcbench {

namespace {

using rc::core::ClientInputs;
using rc::core::Prediction;

template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

// Runs `op(i)` in `batches` batches of `batch` calls and returns each
// batch's mean cost per call in ns, so clock reads are amortized.
template <typename Op>
std::vector<double> BatchMeansNs(size_t batches, size_t batch, Op&& op) {
  std::vector<double> out;
  out.reserve(batches);
  size_t i = 0;
  for (size_t b = 0; b < batches; ++b) {
    const uint64_t t0 = NowNs();
    for (size_t k = 0; k < batch; ++k) op(i++);
    out.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(batch));
  }
  return out;
}

int HardwareThreads() { return std::max<int>(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN))); }

std::optional<rc::Metric> MetricOf(const std::string& model) {
  for (rc::Metric m : rc::kAllMetrics) {
    if (model == rc::MetricModelName(m)) return m;
  }
  return std::nullopt;
}

// Known inputs, distinct by cache key for `model`.
std::vector<ClientInputs> DistinctKnown(const ProbeContext& ctx, const std::string& model,
                                        size_t limit) {
  std::vector<ClientInputs> out;
  std::unordered_set<uint64_t> seen;
  for (const ClientInputs& in : ctx.inputs) {
    if (out.size() >= limit) break;
    if (!ctx.features->contains(in.subscription_id)) continue;
    if (seen.insert(in.CacheKey(model)).second) out.push_back(in);
  }
  return out;
}

void ProbeCodec(const ProbeContext& ctx, const std::string& model,
                const std::vector<ClientInputs>& known, MetricSet& layers) {
  const size_t n = known.size();
  std::vector<uint8_t> buf;
  buf.reserve(4096);
  auto enc1 = BatchMeansNs(2000, 64, [&](size_t i) {
    buf.clear();
    rc::net::AppendPredictSingleRequest(buf, i, model, known[i % n]);
    Keep(buf);
  });
  auto enc16 = BatchMeansNs(1000, 16, [&](size_t i) {
    buf.clear();
    const size_t start = (i * 16) % (n - 16);
    rc::net::AppendPredictManyRequest(buf, i, model,
                                      std::span<const ClientInputs>(known).subspan(start, 16));
    Keep(buf);
  });
  layers.Set("net.encode_ns.single", Median(enc1), "ns");
  layers.Set("net.encode_ns.many16", Median(enc16), "ns");

  // Response frames carrying the client's real answers.
  std::vector<std::vector<uint8_t>> singles, manys;
  for (size_t i = 0; i < 256; ++i) {
    std::vector<uint8_t> f;
    rc::net::AppendPredictSingleResponse(f, i, ctx.client->PredictSingle(model, known[i % n]));
    singles.push_back(std::move(f));
  }
  for (size_t i = 0; i < 64; ++i) {
    const size_t start = (i * 16) % (n - 16);
    std::vector<Prediction> preds = ctx.client->PredictMany(
        model, std::span<const ClientInputs>(known).subspan(start, 16));
    std::vector<uint8_t> f;
    rc::net::AppendPredictManyResponse(f, i, preds);
    manys.push_back(std::move(f));
  }
  auto decode = [](const std::vector<uint8_t>& frame, bool many) {
    rc::ml::ByteReader r(frame.data() + rc::net::kLengthPrefixBytes,
                         frame.size() - rc::net::kLengthPrefixBytes);
    rc::net::FrameHeader header;
    rc::net::WireStatus status;
    std::string error;
    bool ok = rc::net::DecodeHeader(r, &header) == rc::net::WireStatus::kOk;
    if (many) {
      std::vector<Prediction> out;
      ok = ok && rc::net::DecodePredictManyResponse(r, rc::net::kMaxBatch, &status, &out, &error);
      Keep(out);
    } else {
      Prediction out;
      ok = ok && rc::net::DecodePredictSingleResponse(r, &status, &out, &error);
      Keep(out);
    }
    Keep(ok);
  };
  auto dec1 = BatchMeansNs(2000, 64, [&](size_t i) { decode(singles[i % singles.size()], false); });
  auto dec16 = BatchMeansNs(1000, 16, [&](size_t i) { decode(manys[i % manys.size()], true); });
  layers.Set("net.decode_ns.single", Median(dec1), "ns");
  layers.Set("net.decode_ns.many16", Median(dec16), "ns");
}

void ProbeRtt(const ProbeContext& ctx, const std::string& model, const ClientInputs& key,
              MetricSet& layers) {
  rc::net::ServerConfig server_config;
  server_config.num_workers = 1;
  rc::net::Server server(ctx.client, server_config);
  if (!server.Start()) return;
  rc::net::ClientConfig net_config;
  net_config.port = server.port();
  net_config.pool_size = 1;
  net_config.default_deadline_us = 1'000'000;
  rc::net::Client net(net_config);
  std::vector<double> rtt_us;
  for (int i = 0; i < 3200; ++i) {
    Prediction p;
    const uint64_t t0 = NowNs();
    const rc::net::Status status = net.PredictSingle(model, key, &p);
    const uint64_t t1 = NowNs();
    if (status == rc::net::Status::kOk && i >= 200) {
      rtt_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
    }
  }
  server.Stop();
  layers.Set("net.rtt_us.p50", Percentile(rtt_us, 50.0), "us");
  layers.Set("net.rtt_us.p99", Percentile(rtt_us, 99.0), "us");
}

void ProbeClient(const ProbeContext& ctx, const std::string& model,
                 const std::vector<ClientInputs>& known, MetricSet& layers) {
  // Warm hits over a small working set.
  const std::vector<ClientInputs> hot(known.begin(),
                                      known.begin() + std::min<size_t>(256, known.size()));
  for (const auto& in : hot) ctx.client->PredictSingle(model, in);
  auto hit = BatchMeansNs(4000, 64, [&](size_t i) {
    Keep(ctx.client->PredictSingle(model, hot[i % hot.size()]));
  });
  layers.Set("core.hit_ns.p50", Percentile(hit, 50.0), "ns");
  layers.Set("core.hit_ns.p99", Percentile(hit, 99.0), "ns");

  auto throughput = [&](int threads) {
    constexpr int kCalls = 200'000;
    std::latch start(threads + 1);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        start.arrive_and_wait();
        size_t i = static_cast<size_t>(t) * 37;
        for (int c = 0; c < kCalls; ++c) Keep(ctx.client->PredictSingle(model, hot[i++ % hot.size()]));
      });
    }
    start.arrive_and_wait();
    const uint64_t t0 = NowNs();
    for (auto& w : workers) w.join();
    return static_cast<double>(threads) * kCalls / SecondsBetween(t0, NowNs());
  };
  layers.Set("core.hit_preds_per_s.1t", throughput(1), "1/s");
  layers.Set("core.hit_preds_per_s.4t", throughput(HardwareThreads()), "1/s");

  // Misses: a freshly initialized client has nothing cached.
  {
    rc::core::Client fresh(ctx.store, rc::core::ClientConfig{});
    fresh.Initialize();
    std::vector<double> us;
    for (size_t i = 0; i < std::min<size_t>(2000, known.size()); ++i) {
      const uint64_t t0 = NowNs();
      Keep(fresh.PredictSingle(model, known[i]));
      us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    }
    layers.Set("core.miss_us.p50", Percentile(us, 50.0), "us");
    layers.Set("core.miss_us.p99", Percentile(us, 99.0), "us");
  }
  // No-predictions: the same inputs under subscriptions with no feature data.
  {
    rc::core::Client fresh(ctx.store, rc::core::ClientConfig{});
    fresh.Initialize();
    std::vector<double> us;
    for (size_t i = 0; i < std::min<size_t>(2000, known.size()); ++i) {
      ClientInputs unknown = known[i];
      unknown.subscription_id = (uint64_t{0xFEED} << 48) + i;
      const uint64_t t0 = NowNs();
      Keep(fresh.PredictSingle(model, unknown));
      us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    }
    layers.Set("core.none_us.p50", Percentile(us, 50.0), "us");
    layers.Set("core.none_us.p99", Percentile(us, 99.0), "us");
  }
  // PredictMany(16) over keys no earlier call has cached.
  {
    rc::core::Client fresh(ctx.store, rc::core::ClientConfig{});
    fresh.Initialize();
    std::vector<double> us;
    for (size_t start = 0; start + 16 <= known.size() && us.size() < 256; start += 16) {
      const uint64_t t0 = NowNs();
      Keep(fresh.PredictMany(model, std::span<const ClientInputs>(known).subspan(start, 16)));
      us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    }
    layers.Set("core.many16_us", Median(us), "us");
  }
  {
    std::vector<double> init_s;
    for (int i = 0; i < 5; ++i) {
      const uint64_t t0 = NowNs();
      rc::core::Client fresh(ctx.store, rc::core::ClientConfig{});
      fresh.Initialize();
      init_s.push_back(SecondsBetween(t0, NowNs()));
    }
    layers.Set("core.init_s", Median(init_s), "s");
  }
}

// Featurized rows for `model` over the known inputs, row-major.
std::vector<double> Rows(const ProbeContext& ctx, const std::string& model,
                         const std::vector<ClientInputs>& known, size_t* width) {
  const rc::Metric metric = *MetricOf(model);
  rc::core::Featurizer featurizer(metric, rc::core::OfflinePipeline::EncodingFor(metric));
  *width = featurizer.num_features();
  std::vector<double> rows(known.size() * *width);
  for (size_t i = 0; i < known.size(); ++i) {
    featurizer.EncodeTo(known[i], ctx.features->at(known[i].subscription_id),
                        std::span<double>(rows).subspan(i * *width, *width));
  }
  return rows;
}

void ProbeFeaturizeAndEngine(const ProbeContext& ctx, const std::string& model,
                             const std::vector<ClientInputs>& known, MetricSet& layers) {
  {
    const rc::Metric metric = *MetricOf(model);
    rc::core::Featurizer featurizer(metric, rc::core::OfflinePipeline::EncodingFor(metric));
    std::vector<double> row(featurizer.num_features());
    auto ns = BatchMeansNs(2000, 32, [&](size_t i) {
      const ClientInputs& in = known[i % known.size()];
      featurizer.EncodeTo(in, ctx.features->at(in.subscription_id), row);
      Keep(row);
    });
    layers.Set("core.featurize_ns", Median(ns), "ns");
  }

  size_t total_bytes = 0;
  std::string rf_model, gbt_model;
  for (const auto& [name, classifier] : ctx.classifiers) {
    auto engine = rc::ml::ExecEngine::TryCompile(*classifier);
    if (engine == nullptr) continue;
    total_bytes += engine->bytes();
    if (engine->family() == rc::ml::ExecEngine::Family::kAveragedForest) {
      if (rf_model.empty() || name == model) rf_model = name;
    } else if (gbt_model.empty()) {
      gbt_model = name;
    }
  }
  layers.Set("ml.model_bytes", static_cast<double>(total_bytes), "B");

  auto rows_per_s = [&](const std::string& name, size_t batch) {
    auto engine = rc::ml::ExecEngine::TryCompile(*ctx.classifiers.at(name));
    size_t width = 0;
    const std::vector<double> rows = Rows(ctx, name, known, &width);
    const size_t n = known.size() - known.size() % batch;
    std::vector<double> proba(batch * static_cast<size_t>(engine->num_classes()));
    std::vector<double> rates;
    for (int pass = 0; pass < 7; ++pass) {
      const uint64_t t0 = NowNs();
      for (size_t i = 0; i + batch <= n; i += batch) {
        engine->PredictBatch(rows.data() + i * width, batch, width, proba.data(),
                             rc::ml::ExecEngine::Mode::kAuto);
        Keep(proba);
      }
      rates.push_back(static_cast<double>(n) / SecondsBetween(t0, NowNs()));
    }
    return Median(rates);
  };
  if (!rf_model.empty()) {
    layers.Set("ml.rows_per_s.rf.b1", rows_per_s(rf_model, 1), "1/s");
    layers.Set("ml.rows_per_s.rf.b64", rows_per_s(rf_model, 64), "1/s");
  }
  if (!gbt_model.empty()) {
    layers.Set("ml.rows_per_s.gbt.b1", rows_per_s(gbt_model, 1), "1/s");
    layers.Set("ml.rows_per_s.gbt.b64", rows_per_s(gbt_model, 64), "1/s");
  }
}

void ProbeCache(const ProbeContext& ctx, MetricSet& layers) {
  // A standalone cache with the client's default capacity and shard count,
  // filled with the workload's key stream and probed from every core.
  std::vector<uint64_t> keys;
  for (const std::string& model : ctx.models) {
    for (const ClientInputs& in : ctx.inputs) keys.push_back(in.CacheKey(model));
  }
  rc::cache::CacheOptions options;
  options.capacity = rc::core::ClientConfig{}.result_cache_capacity;
  rc::cache::Word2Cache cache(options);
  for (uint64_t k : keys) {
    const uint64_t value[2] = {k, ~k};
    cache.Insert(k, value, cache.epoch());
  }
  const int threads = HardwareThreads();
  std::vector<std::vector<double>> samples(static_cast<size_t>(threads));
  std::latch start(threads);
  std::vector<std::thread> readers;
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      rc::Rng rng(1000 + static_cast<uint64_t>(t));
      start.arrive_and_wait();
      uint64_t out[2];
      samples[static_cast<size_t>(t)] = BatchMeansNs(4000, 64, [&](size_t) {
        Keep(cache.Lookup(keys[rng.NextU64() % keys.size()], out));
      });
    });
  }
  for (auto& r : readers) r.join();
  std::vector<double> all;
  for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  layers.Set("cache.probe_ns.p50", Percentile(all, 50.0), "ns");
  layers.Set("cache.probe_ns.p99", Percentile(all, 99.0), "ns");
}

void ProbeStore(const ProbeContext& ctx, MetricSet& layers) {
  std::vector<std::string> keys = ctx.store->ListKeys();
  if (keys.empty()) return;
  auto get = BatchMeansNs(4000, 16, [&](size_t i) { Keep(ctx.store->Get(keys[i % keys.size()])); });
  layers.Set("store.get_ns.p50", Percentile(get, 50.0), "ns");
  layers.Set("store.get_ns.p99", Percentile(get, 99.0), "ns");
  constexpr int kThreads = 4;
  constexpr int kGets = 50'000;
  std::latch start(kThreads + 1);
  std::vector<std::thread> loaders;
  for (int t = 0; t < kThreads; ++t) {
    loaders.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kGets; ++i) {
        Keep(ctx.store->Get(keys[(static_cast<size_t>(t) * 7919 + static_cast<size_t>(i)) % keys.size()]));
      }
    });
  }
  start.arrive_and_wait();
  const uint64_t t0 = NowNs();
  for (auto& l : loaders) l.join();
  layers.Set("store.loads_per_s.4t", kThreads * static_cast<double>(kGets) / SecondsBetween(t0, NowNs()),
             "1/s");
}

}  // namespace

void RunLayerProbes(const ProbeContext& ctx, MetricSet& layers) {
  // VM_P95UTIL is served by every workload; it is the probe model.
  const std::string model = "VM_P95UTIL";
  const std::vector<ClientInputs> known = DistinctKnown(ctx, model, 4096);
  if (known.size() < 64) {
    std::cout << "layer probes skipped: only " << known.size() << " known inputs\n";
    return;
  }
  ProbeCodec(ctx, model, known, layers);
  ProbeRtt(ctx, model, known[0], layers);
  ProbeClient(ctx, model, known, layers);
  ProbeFeaturizeAndEngine(ctx, model, known, layers);
  ProbeCache(ctx, layers);
  ProbeStore(ctx, layers);
}

}  // namespace rcbench
