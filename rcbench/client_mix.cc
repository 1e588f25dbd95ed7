// client_mix: the paper's client library called in-process by controller
// threads that each wait for the answer. A default push-mode core::Client
// serves all six models to 3 closed-loop caller threads replaying the
// held-out month-3 arrivals of the training trace, while 1 writer thread
// re-Puts one subscription's feature record after every kWriteEvery-th
// caller prediction. Unknown subscriptions keep their natural month-3 share,
// so the no-prediction path, the shared writes of every hit and the
// whole-cache flush on each push all sit on the critical path. No network.
//
// The work per run is fixed (calls = seconds x kCallsPerSecond) so the
// number of invalidations does not depend on speed. Every prediction is
// checked against a single-threaded cache-off client.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <iostream>
#include <latch>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "rcbench/common.h"
#include "src/core/model_spec.h"
#include "src/trace/vm_size_catalog.h"

namespace rcbench {

namespace {

using rc::core::ClientInputs;
using rc::core::Prediction;

constexpr int kCallers = 3;
// The working set: this many month-3 inputs with feature data plus inputs
// without in proportion to kUnknownShare, each group drawn Zipf(kZipfS).
// With one push per kWriteEvery calls this gives ~45 hits per model
// execution at seed 42, inside the paper's 18-68 band (Sec. 6.1).
constexpr size_t kKnownKeys = 256;
constexpr double kZipfS = 0.99;
// Share of calls for subscriptions with no feature data: the month-3 share
// at seed 42 (456 of 7,531 arrivals). Fixed rather than taken from each
// seed's trace, so seeds change the keys but not the mix.
constexpr double kUnknownShare = 456.0 / 7531.0;
// One feature push per this many caller predictions.
constexpr uint64_t kWriteEvery = 50'000;
// Fixed work: caller predictions per second of --seconds (about one second
// of work per --seconds on a 4-core host at seed 42).
constexpr uint64_t kCallsPerSecond = 135'000;
// One call in this many is timed.
constexpr uint64_t kSampleEvery = 16;

struct Rig {
  SixModels six;
  std::unique_ptr<rc::obs::MetricsRegistry> registry;
  std::unique_ptr<rc::core::Client> client;
  std::vector<ClientInputs> inputs;  // the working set, known first
  size_t known = 0;                  // inputs[0, known) have feature data
  double natural_unknown_share = 0.0;  // this seed's month-3 share without feature data
  std::vector<uint64_t> write_subs;  // subscriptions the writer re-Puts
};

std::unique_ptr<Rig> SetUp(uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  rig->six = BuildSixModels(seed);
  static const rc::trace::VmSizeCatalog catalog;
  std::vector<ClientInputs> known, unknown;
  for (const auto* vm : rig->six.trace.VmsCreatedIn(60 * rc::kDay, 90 * rc::kDay)) {
    ClientInputs in = rc::core::InputsFromVm(*vm, catalog);
    (rig->six.trained.feature_data.contains(in.subscription_id) ? known : unknown).push_back(in);
  }
  if (known.empty()) return nullptr;
  rig->natural_unknown_share =
      static_cast<double>(unknown.size()) / static_cast<double>(known.size() + unknown.size());
  rc::Rng rng(seed ^ 0xC11E'0001ull);
  rng.Shuffle(known);
  rng.Shuffle(unknown);
  known.resize(std::min(known.size(), kKnownKeys));
  const size_t unknown_keys = std::max<size_t>(
      1, static_cast<size_t>(std::lround(static_cast<double>(known.size()) * kUnknownShare /
                                         (1.0 - kUnknownShare))));
  unknown.resize(std::min(unknown.size(), unknown_keys));
  std::unordered_set<uint64_t> subs;
  for (const ClientInputs& in : known) {
    if (subs.insert(in.subscription_id).second) rig->write_subs.push_back(in.subscription_id);
  }
  rig->inputs = known;
  rig->known = known.size();
  rig->inputs.insert(rig->inputs.end(), unknown.begin(), unknown.end());
  rig->registry = std::make_unique<rc::obs::MetricsRegistry>();
  rc::core::ClientConfig config;
  config.metrics = rig->registry.get();
  rig->client = std::make_unique<rc::core::Client>(rig->six.store.get(), config);
  if (!rig->client->Initialize()) return nullptr;
  // Warm-up: every (model, input) pair once.
  for (const std::string& model : AllModelNames()) {
    for (const auto& in : rig->inputs) rig->client->PredictSingle(model, in);
  }
  return rig;
}

// A caller's stream: (model << 24) | input index.
using Stream = std::vector<uint32_t>;

std::vector<Stream> MakeStreams(const Rig& rig, uint64_t seed, uint64_t calls_per_caller) {
  const size_t known = rig.known;
  const size_t unknown = rig.inputs.size() - known;
  const double unknown_share = kUnknownShare;
  rc::Rng perm_rng(seed ^ 0xC11E'0002ull);
  const std::vector<uint32_t> known_rank = Permutation(known, perm_rng);
  const std::vector<uint32_t> unknown_rank = Permutation(std::max<size_t>(unknown, 1), perm_rng);
  const Zipf known_zipf(known, kZipfS);
  const Zipf unknown_zipf(std::max<size_t>(unknown, 1), kZipfS);
  std::vector<Stream> streams(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    rc::Rng rng(seed * 7919 + static_cast<uint64_t>(c) + 1);
    Stream& s = streams[static_cast<size_t>(c)];
    s.reserve(calls_per_caller);
    for (uint64_t i = 0; i < calls_per_caller; ++i) {
      const uint32_t model = static_cast<uint32_t>(rng.UniformInt(0, rc::kNumMetrics - 1));
      uint32_t key;
      if (unknown > 0 && rng.NextDouble() < unknown_share) {
        key = static_cast<uint32_t>(known + unknown_rank[unknown_zipf(rng)]);
      } else {
        key = known_rank[known_zipf(rng)];
      }
      s.push_back((model << 24) | key);
    }
  }
  return streams;
}

struct Pass {
  double elapsed_s = 0.0;
  uint64_t calls = 0;
  uint64_t writes_in_window = 0;
  uint64_t writes = 0;
  std::vector<double> call_us;
  std::vector<double> put_us;
  rc::core::ClientStats before, after;
};

// Runs the fixed work once: 3 callers over their streams plus the writer.
Pass RunPass(Rig& rig, const std::vector<Stream>& streams,
             const std::vector<Prediction>& reference, const std::vector<std::string>& models,
             const std::vector<std::vector<uint8_t>>& blobs, uint64_t seed, RunRecord& record,
             std::vector<Span>* spans) {
  const size_t m_inputs = rig.inputs.size();
  std::mutex mu;
  std::condition_variable cv;
  uint64_t pending_writes = 0;  // guarded by mu
  bool callers_done = false;    // guarded by mu
  Pass pass;
  pass.before = rig.client->stats();

  struct CallerOut {
    std::vector<double> sample_us;
    std::vector<Span> spans;
    uint64_t mismatches = 0;
    std::string example;
  };
  std::vector<CallerOut> outs(kCallers);
  std::vector<Span> writer_spans;
  std::latch start(kCallers + 2);
  std::atomic<uint64_t> window_end_ns{0};
  uint64_t writes_in_window = 0;

  std::thread writer([&] {
    rc::Rng rng(seed ^ 0x3217'0003ull);
    start.arrive_and_wait();
    uint64_t n = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return pending_writes > 0 || callers_done; });
        if (pending_writes == 0) break;
        --pending_writes;
      }
      const size_t w = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(blobs.size()) - 1));
      const uint64_t t0 = NowNs();
      rig.six.store->Put(rc::core::FeatureKey(rig.write_subs[w]), blobs[w]);
      const uint64_t t1 = NowNs();
      pass.put_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
      if (spans != nullptr) writer_spans.push_back({"client/put", (uint64_t{1} << 60) + ++n, 0, 0, t0, t1});
      const uint64_t end = window_end_ns.load(std::memory_order_acquire);
      if (end == 0 || t1 <= end) ++writes_in_window;
    }
  });

  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const Stream& stream = streams[static_cast<size_t>(c)];
      CallerOut& out = outs[static_cast<size_t>(c)];
      out.sample_us.reserve(stream.size() / kSampleEvery + 1);
      start.arrive_and_wait();
      for (size_t i = 0; i < stream.size(); ++i) {
        const uint32_t model = stream[i] >> 24;
        const uint32_t key = stream[i] & 0xFFFFFF;
        Prediction p;
        if (i % kSampleEvery == 0) {
          const uint64_t t0 = NowNs();
          p = rig.client->PredictSingle(models[model], rig.inputs[key]);
          const uint64_t t1 = NowNs();
          out.sample_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
          if (spans != nullptr) {
            const uint64_t rid = (static_cast<uint64_t>(c) << 40) + i + 1;
            out.spans.push_back({"client/predict_single", rid, 0, rid, t0, t1});
          }
        } else {
          p = rig.client->PredictSingle(models[model], rig.inputs[key]);
        }
        const Prediction& want = reference[model * m_inputs + key];
        if (!SamePrediction(p, want)) {
          if (out.mismatches++ == 0) {
            out.example = "client_mix " + models[model] + ": got " + Describe(p) + ", want " +
                          Describe(want);
          }
        }
        if ((i + 1) % kWriteEvery == 0) {
          {
            std::lock_guard<std::mutex> lock(mu);
            ++pending_writes;
          }
          cv.notify_one();
        }
      }
    });
  }
  start.arrive_and_wait();
  const uint64_t t0 = NowNs();
  for (auto& t : callers) t.join();
  const uint64_t t1 = NowNs();
  window_end_ns.store(t1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu);
    callers_done = true;
  }
  cv.notify_one();
  writer.join();

  pass.elapsed_s = SecondsBetween(t0, t1);
  pass.after = rig.client->stats();
  pass.writes = pass.put_us.size();
  pass.writes_in_window = writes_in_window;
  for (const Stream& s : streams) pass.calls += s.size();
  for (CallerOut& out : outs) {
    pass.call_us.insert(pass.call_us.end(), out.sample_us.begin(), out.sample_us.end());
    if (out.mismatches > 0) {
      record.Mismatch(out.example);
      record.mismatches += out.mismatches - 1;
    }
    if (spans != nullptr) spans->insert(spans->end(), out.spans.begin(), out.spans.end());
  }
  if (spans != nullptr) spans->insert(spans->end(), writer_spans.begin(), writer_spans.end());
  return pass;
}

}  // namespace

void RunClientMix(const Options& options, RunRecord& record) {
  constexpr int kSetups = 3;
  std::vector<double> setup_s, gen_s, train_s, publish_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const uint64_t t0 = NowNs();
    rig = SetUp(options.seed);
    if (rig == nullptr || rig->known < 16) {
      record.Mismatch("client_mix set-up failed");
      return;
    }
    setup_s.push_back(SecondsBetween(t0, NowNs()));
    gen_s.push_back(rig->six.trace_gen_s);
    train_s.push_back(rig->six.train_s);
    publish_s.push_back(rig->six.publish_s);
  }
  const uint64_t once0 = NowNs();
  const std::vector<std::string> models = AllModelNames();
  const std::vector<Prediction> reference = ReferenceAnswers(*rig->six.store, models, rig->inputs);
  std::vector<std::vector<uint8_t>> blobs;
  for (uint64_t sub : rig->write_subs) blobs.push_back(rig->six.store->Get(rc::core::FeatureKey(sub))->data);
  const uint64_t calls_per_caller =
      static_cast<uint64_t>(options.seconds) * kCallsPerSecond / kCallers;
  const std::vector<Stream> streams = MakeStreams(*rig, options.seed, calls_per_caller);
  const double once_s = SecondsBetween(once0, NowNs());
  std::cout << "client_mix: working set of " << rig->inputs.size() << " month-3 inputs, "
            << (rig->inputs.size() - rig->known) << " with no feature data (drawn at "
            << 100.0 * kUnknownShare << "%; this seed's month-3 share is "
            << 100.0 * rig->natural_unknown_share << "%), " << kCallers << " callers x " << calls_per_caller
            << " calls, one push per " << kWriteEvery << " calls\n";
  std::cout << "client_mix set-up: " << kSetups << " x (" << Median(setup_s)
            << " s median) + reference and streams " << once_s << " s\n";

  std::vector<Span> spans;
  Pass pass = RunPass(*rig, streams, reference, models, blobs, options.seed, record, nullptr);
  double overhead_pct = 0.0;
  if (options.trace) {
    Pass traced = RunPass(*rig, streams, reference, models, blobs, options.seed, record, &spans);
    overhead_pct = 100.0 * (traced.elapsed_s - pass.elapsed_s) / pass.elapsed_s;
  }
  record.attempted = pass.calls;
  record.failed = 0;  // a no-prediction is an answer, not a failure

  const double setup = Median(setup_s) + once_s;
  const double preds_per_s = static_cast<double>(pass.calls) / pass.elapsed_s;
  std::cout << "-- client_mix pass: " << pass.calls << " predictions in " << pass.elapsed_s << " s, "
            << pass.writes_in_window << " pushes inside the window (" << pass.writes << " total), "
            << pass.call_us.size() << " timed calls\n";
  record.named.Set("setup_s", setup, "s");
  record.named.Set("peak_rss_mb", PeakRssMb(), "MB");
  record.named.Set("failed_share", 0.0, "ratio");
  record.named.Set("preds_per_s", preds_per_s, "preds/s");
  record.named.Set("call_p50_us", Percentile(pass.call_us, 50.0), "us");
  record.named.Set("call_p99_us", Percentile(pass.call_us, 99.0), "us");

  record.e2e.Set("setup_s", setup, "s");
  record.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  record.e2e.Set("work_per_s", preds_per_s, "1/s");
  record.e2e.Set("p50_us", Percentile(pass.call_us, 50.0), "us");

  if (options.trace) ZeroLayers(record.layers);
  ReportShares(SharesBetween(pass.before, pass.after), 0.0, record, options.trace);
  if (!options.trace) return;
  MetricSet& layers = record.layers;
  layers.Set("setup.trace_gen_s", Median(gen_s), "s");
  layers.Set("setup.train_s", Median(train_s), "s");
  layers.Set("setup.publish_s", Median(publish_s), "s");
  layers.Set("trace.overhead_pct", overhead_pct, "%");
  layers.Set("store.put_us.p50", Percentile(pass.put_us, 50.0), "us");
  layers.Set("store.put_us.p99", Percentile(pass.put_us, 99.0), "us");
  layers.Set("cache.admit_rejects",
             static_cast<double>(CounterTotal(*rig->registry, "rc_cache_admit_rejects")), "count");
  layers.Set("cache.evictions", static_cast<double>(CounterTotal(*rig->registry, "rc_cache_evictions")),
             "count");
  layers.Set("cache.probe_retries",
             static_cast<double>(CounterTotal(*rig->registry, "rc_cache_probe_retries")), "count");

  PrintSpanSummary(SummarizeSpans(spans));
  const std::string path =
      options.out_dir + "/spans-client_mix-" + std::to_string(options.seed) + ".json";
  if (WriteSpans(path, spans)) std::cout << "spans written to " << path << "\n";

  ProbeContext ctx;
  ctx.store = rig->six.store.get();
  ctx.client = rig->client.get();
  ctx.models = models;
  ctx.inputs = rig->inputs;
  ctx.features = &rig->six.trained.feature_data;
  for (const auto& [name, model] : rig->six.trained.models) ctx.classifiers[name] = model.get();
  RunLayerProbes(ctx, layers);
}

}  // namespace rcbench
