// sched_month: the Section 6.2 study. A two-month first-party trace (368k
// VMs per month) trains a VM_P95UTIL random forest on month 1; the
// RC-informed-soft policy then places month 2 on 880 x (16-core, 112 GB)
// servers. Predictions come through the benchmark's own BatchUtilPredictor,
// one client PredictMany per arrival wave. Single thread.
//
// A run simulates the same month several times, each with a fresh client.
// month_s is the wall time of ClusterSimulator::Run, taken as the sum over
// the simulated days of each day's fastest wall time across those months;
// wave latencies likewise keep each arrival wave's fastest PredictMany.
// Other tenants of a shared host only ever add time, in bursts of seconds,
// and a burst seldom hits the same day of every month, so this is much
// steadier than any one month's time. The outcome of every measured month
// must equal a reference month driven by a cache-off client, and, for seeds
// recorded in workloads.json, the recorded outcome.
#include <algorithm>
#include <iostream>

#include "rcbench/common.h"
#include "src/core/featurizer.h"
#include "src/core/model_spec.h"
#include "src/ml/random_forest.h"
#include "src/sched/simulator.h"
#include "src/trace/vm_size_catalog.h"
#include "src/trace/workload_model.h"

namespace rcbench {

namespace {

using rc::core::ClientInputs;
using rc::core::Prediction;
using rc::sched::VmRequest;

constexpr int64_t kMonthlyVms = 368'000;
constexpr const char* kModel = "VM_P95UTIL";
constexpr rc::SimTime kMonthDays = 30;
// Measured months per 10 s of --seconds (at least 3). A month takes 3-5 s
// on a shared 4-core host.
constexpr int kMonthsPerTenSeconds = 8;

struct Rig {
  rc::trace::Trace trace;
  std::vector<VmRequest> requests;  // month 2, rebased to start at 0
  std::unique_ptr<rc::store::KvStore> store;
  std::unique_ptr<rc::ml::RandomForest> model;
  std::unordered_map<uint64_t, rc::core::SubscriptionFeatures> features;
  double trace_gen_s = 0.0;
  double train_s = 0.0;
  double publish_s = 0.0;
};

std::unique_ptr<Rig> SetUp(uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  // The scheduler-study workload of the reproduction benches: first party
  // only, 71% production, lighter lifetime tail, no >100-VM deployments.
  rc::trace::WorkloadConfig config;
  config.target_vm_count = 2 * kMonthlyVms;
  config.duration = 60 * rc::kDay;
  config.num_subscriptions = 4000;
  config.seed = seed;
  config.frac_first_party = 1.0;
  config.first_party_production_prob = 0.71;
  config.lifetime_cap_days = 15.0;
  config.lifetime_tail_alpha = 1.0;
  config.popularity_cap = 0.0015;
  config.resident_interactive_vm_frac = 0.002;
  config.deploy_vms_marginal = {0.49, 0.41, 0.10, 0.0};
  config.arrivals.weibull_shape = 0.9;
  config.arrivals.night_level = 0.6;
  config.arrivals.weekend_level = 0.8;
  uint64_t t0 = NowNs();
  rig->trace = rc::trace::WorkloadModel(config).Generate();
  for (VmRequest req : rc::sched::RequestsFromTrace(rig->trace, 60 * rc::kDay)) {
    if (req.arrival < 30 * rc::kDay) continue;
    req.arrival -= 30 * rc::kDay;
    req.departure -= 30 * rc::kDay;
    rig->requests.push_back(req);
  }
  uint64_t t1 = NowNs();

  const rc::Metric metric = rc::Metric::kP95Cpu;
  auto examples =
      rc::core::OfflinePipeline::BuildExamples(rig->trace, metric, 0, 30 * rc::kDay, false);
  constexpr size_t kMaxTrainRows = 100'000;
  if (examples.size() > kMaxTrainRows) {
    rc::Rng rng(seed + 1);
    rng.Shuffle(examples);
    examples.resize(kMaxTrainRows);
  }
  const rc::core::FeatureEncoding encoding = rc::core::OfflinePipeline::EncodingFor(metric);
  rc::core::Featurizer featurizer(metric, encoding);
  rc::ml::Dataset data = rc::core::OfflinePipeline::ToDataset(examples, featurizer);
  rc::ml::RandomForestConfig rf;
  rf.num_trees = 32;
  rf.tree.max_depth = 13;
  rf.seed = seed + 2;
  rig->model = std::make_unique<rc::ml::RandomForest>(rc::ml::RandomForest::Fit(data, rf));
  rig->features = rc::core::OfflinePipeline::BuildFeatureSnapshot(rig->trace, 30 * rc::kDay, false);
  uint64_t t2 = NowNs();

  rc::core::ModelSpec spec;
  spec.name = kModel;
  spec.metric = metric;
  spec.encoding = encoding;
  spec.model_family = rig->model->type_name();
  spec.num_features = static_cast<uint32_t>(featurizer.num_features());
  spec.version = 1;
  rig->store = std::make_unique<rc::store::KvStore>();
  rig->store->Put(rc::core::SpecKey(spec.name), spec.Serialize());
  rig->store->Put(rc::core::ModelKey(spec.name), rig->model->SerializeTagged());
  for (const auto& [sub, features] : rig->features) {
    rig->store->Put(rc::core::FeatureKey(sub), features.Serialize());
  }
  uint64_t t3 = NowNs();
  rig->trace_gen_s = SecondsBetween(t0, t1);
  rig->train_s = SecondsBetween(t1, t2);
  rig->publish_s = SecondsBetween(t2, t3);
  return rig;
}

struct Month {
  rc::sched::SimResult result;
  double month_s = 0.0;
  double predict_s = 0.0;
  uint64_t waves = 0;
  uint64_t rows = 0;
  uint64_t singles = 0;
  std::vector<double> wave_us;  // PredictMany latency, one sample per arrival wave
  // Wall time of each simulated day: from the end of the previous day's last
  // arrival wave to the end of this day's; the last day runs to the end of
  // Run, so the days add up to month_s.
  std::vector<double> day_s;
  std::unique_ptr<rc::obs::MetricsRegistry> registry;
  std::unique_ptr<rc::core::Client> client;
};

// One simulated month under RC-informed-soft, predictions from a fresh
// client (result cache on unless `reference`).
Month RunMonth(Rig& rig, bool reference, std::vector<Span>* spans) {
  static const rc::trace::VmSizeCatalog catalog;
  Month m;
  m.registry = std::make_unique<rc::obs::MetricsRegistry>();
  rc::core::ClientConfig client_config;
  client_config.metrics = m.registry.get();
  if (reference) client_config.result_cache_capacity = 0;
  m.client = std::make_unique<rc::core::Client>(rig.store.get(), client_config);
  m.client->Initialize();

  rc::sched::SimConfig sim_config;
  sim_config.cluster = rc::sched::ClusterConfig{880, 16, 112.0};
  sim_config.horizon = kMonthDays * rc::kDay;
  sim_config.metrics = m.registry.get();
  rc::sched::Cluster cluster(sim_config.cluster);
  rc::sched::PolicyConfig policy_config;
  policy_config.kind = rc::sched::PolicyKind::kRcInformedSoft;
  policy_config.metrics = m.registry.get();

  const uint64_t run_id = 1;
  uint64_t next_span = 2;
  uint64_t predict_ns = 0;
  rc::core::Client& client = *m.client;
  rc::sched::UtilPredictor single = [&](const VmRequest& vm) {
    const uint64_t t0 = NowNs();
    Prediction p = client.PredictSingle(kModel, rc::core::InputsFromVm(*vm.source, catalog));
    const uint64_t t1 = NowNs();
    predict_ns += t1 - t0;
    ++m.singles;
    if (spans != nullptr) spans->push_back({"sched/predict_single", next_span++, run_id, run_id, t0, t1});
    return p;
  };
  std::vector<ClientInputs> inputs;
  std::vector<uint64_t> day_end_ns(kMonthDays, 0);
  rc::sched::BatchUtilPredictor batch = [&](std::span<const VmRequest> vms) {
    const uint64_t t0 = NowNs();
    inputs.clear();
    for (const VmRequest& vm : vms) inputs.push_back(rc::core::InputsFromVm(*vm.source, catalog));
    std::vector<Prediction> out = client.PredictMany(kModel, inputs);
    const uint64_t t1 = NowNs();
    predict_ns += t1 - t0;
    ++m.waves;
    m.rows += vms.size();
    m.wave_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
    const rc::SimTime day = vms.front().arrival / rc::kDay;
    if (day >= 0 && day < kMonthDays) day_end_ns[static_cast<size_t>(day)] = t1;
    if (spans != nullptr) spans->push_back({"sched/predict_many", next_span++, run_id, run_id, t0, t1});
    return out;
  };
  rc::sched::SchedulingPolicy policy(policy_config, &cluster, std::move(single), std::move(batch));
  rc::sched::ClusterSimulator simulator(sim_config);
  std::vector<VmRequest> requests = rig.requests;
  const uint64_t t0 = NowNs();
  m.result = simulator.Run(std::move(requests), policy);
  const uint64_t t1 = NowNs();
  if (spans != nullptr) spans->push_back({"sched/run", run_id, 0, run_id, t0, t1});
  m.month_s = SecondsBetween(t0, t1);
  uint64_t day_start = t0;
  for (size_t d = 0; d < day_end_ns.size(); ++d) {
    const uint64_t end = d + 1 == day_end_ns.size() ? t1 : std::max(day_end_ns[d], day_start);
    m.day_s.push_back(SecondsBetween(day_start, end));
    day_start = end;
  }
  m.predict_s = static_cast<double>(predict_ns) * 1e-9;
  return m;
}

// The fastest of several runs of the same month, day by day and wave by
// wave. Every month has the same waves: the simulation is deterministic.
struct Fastest {
  double month_s = 0.0;
  double predict_s = 0.0;  // the waves' fastest PredictMany times, summed
  std::vector<double> wave_us;
};

Fastest FastestOf(const std::vector<const Month*>& months) {
  Fastest best;
  best.wave_us = months.front()->wave_us;
  for (size_t d = 0; d < months.front()->day_s.size(); ++d) {
    double day = months.front()->day_s[d];
    for (const Month* m : months) day = std::min(day, m->day_s[d]);
    best.month_s += day;
  }
  for (const Month* m : months) {
    for (size_t w = 0; w < best.wave_us.size(); ++w) {
      best.wave_us[w] = std::min(best.wave_us[w], m->wave_us[w]);
    }
  }
  for (double us : best.wave_us) best.predict_s += us * 1e-6;
  return best;
}

std::string Outcome(const rc::sched::SimResult& r) {
  return std::to_string(r.total_vms) + " VMs, " + std::to_string(r.failures) + " failures, " +
         std::to_string(r.overload_readings) + " readings >100%, " +
         std::to_string(r.oversub_placements) + " oversub placements";
}

bool SameOutcome(const rc::sched::SimResult& a, const rc::sched::SimResult& b) {
  return a.total_vms == b.total_vms && a.failures == b.failures &&
         a.overload_readings == b.overload_readings && a.occupied_readings == b.occupied_readings &&
         a.oversub_placements == b.oversub_placements &&
         a.mean_occupied_utilization == b.mean_occupied_utilization &&
         a.p99_utilization == b.p99_utilization;
}

}  // namespace

void RunSchedMonth(const Options& options, RunRecord& record) {
  constexpr int kSetups = 3;
  std::vector<double> setup_s, gen_s, train_s, publish_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const uint64_t t0 = NowNs();
    rig = SetUp(options.seed);
    setup_s.push_back(SecondsBetween(t0, NowNs()));
    gen_s.push_back(rig->trace_gen_s);
    train_s.push_back(rig->train_s);
    publish_s.push_back(rig->publish_s);
  }
  const uint64_t once0 = NowNs();
  const Month reference = RunMonth(*rig, /*reference=*/true, nullptr);
  const double once_s = SecondsBetween(once0, NowNs());
  std::cout << "sched_month: " << rig->requests.size() << " month-2 arrivals; set-up " << kSetups
            << " x (" << Median(setup_s) << " s median) + cache-off reference month " << once_s
            << " s\nreference outcome: " << Outcome(reference.result) << "\n";
  if (options.expect_sched) {
    const SchedOutcome& want = *options.expect_sched;
    const rc::sched::SimResult& r = reference.result;
    if (r.total_vms != want[0] || r.failures != want[1] || r.overload_readings != want[2] ||
        r.oversub_placements != want[3]) {
      record.Mismatch("sched_month outcome " + Outcome(r) + " differs from the recorded " +
                      std::to_string(want[0]) + "/" + std::to_string(want[1]) + "/" +
                      std::to_string(want[2]) + "/" + std::to_string(want[3]));
    }
  }

  // A traced run measures one untraced and one traced month.
  const int months = options.trace ? 2 : std::max(3, options.seconds * kMonthsPerTenSeconds / 10);
  std::vector<Month> runs;
  std::vector<Span> spans;
  for (int i = 0; i < months; ++i) {
    const bool traced = options.trace && i == 1;
    runs.push_back(RunMonth(*rig, false, traced ? &spans : nullptr));
    const Month& m = runs.back();
    std::cout << "  month " << i << (traced ? " (traced)" : "") << ": " << m.month_s << " s, predict "
              << m.predict_s << " s, " << m.waves << " waves, " << m.rows << " rows, " << m.singles
              << " single calls; " << Outcome(m.result) << "\n";
    if (!SameOutcome(m.result, reference.result) || m.waves != reference.waves) {
      record.Mismatch("sched_month outcome " + Outcome(m.result) + " in " + std::to_string(m.waves) +
                      " waves differs from the cache-off reference " + Outcome(reference.result) +
                      " in " + std::to_string(reference.waves) + " waves");
    }
    record.attempted += m.rows + m.singles;
    // Only the first month's client and registry are read afterwards.
    if (i > 0) {
      runs.back().client.reset();
      runs.back().registry.reset();
    }
  }
  if (!record.correct()) return;
  std::vector<const Month*> untraced;
  std::vector<double> untraced_s;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (options.trace && i == 1) continue;
    untraced.push_back(&runs[i]);
    untraced_s.push_back(runs[i].month_s);
  }
  const Fastest best = FastestOf(untraced);
  // Every month does the same work; the per-layer metrics and shares come
  // from the first, which is untraced.
  const Month& first = runs.front();
  std::cout << "month_s: " << best.month_s << " s from each day's fastest of " << untraced.size()
            << " months (median month " << Median(untraced_s) << " s); PredictMany "
            << best.predict_s << " s from each wave's fastest\n";

  const double setup = Median(setup_s) + once_s;
  record.named.Set("setup_s", setup, "s");
  record.named.Set("peak_rss_mb", PeakRssMb(), "MB");
  record.named.Set("failed_share", 0.0, "ratio");
  record.named.Set("month_s", best.month_s, "s");
  record.named.Set("wave_p50_us", Percentile(best.wave_us, 50.0), "us");
  record.named.Set("wave_p99_us", Percentile(best.wave_us, 99.0), "us");
  const double wave_rows_per_s = static_cast<double>(first.rows) / best.predict_s;
  record.named.Set("wave_rows_per_s", wave_rows_per_s, "1/s");

  record.e2e.Set("setup_s", setup, "s");
  record.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  record.e2e.Set("work_per_s", wave_rows_per_s, "1/s");
  record.e2e.Set("p50_us", Percentile(best.wave_us, 50.0), "us");

  if (options.trace) ZeroLayers(record.layers);
  ReportShares(SharesBetween(rc::core::ClientStats{}, first.client->stats()),
               static_cast<double>(first.rows) / std::max(1.0, static_cast<double>(first.rows + first.singles)),
               record, options.trace);
  std::cout << "properties: prediction share of month_s " << first.predict_s / first.month_s << "\n";
  if (!options.trace) return;
  const Month& traced = runs[1];
  MetricSet& layers = record.layers;
  layers.Set("setup.trace_gen_s", Median(gen_s), "s");
  layers.Set("setup.train_s", Median(train_s), "s");
  layers.Set("setup.publish_s", Median(publish_s), "s");
  layers.Set("trace.overhead_pct", 100.0 * (traced.month_s - first.month_s) / first.month_s, "%");
  layers.Set("sched.predict_s", first.predict_s, "s");
  layers.Set("sched.self_s", first.month_s - first.predict_s, "s");
  layers.Set("sched.predict_share", first.predict_s / first.month_s, "ratio");
  const auto place = HistogramSnapshot(*first.registry, "rc_sched_place_latency_us");
  const auto slot = HistogramSnapshot(*first.registry, "rc_sim_slot_latency_us");
  layers.Set("sched.place_us.p50", place.Quantile(0.50), "us");
  layers.Set("sched.place_us.p99", place.Quantile(0.99), "us");
  layers.Set("sched.slot_us.p50", slot.Quantile(0.50), "us");
  layers.Set("sched.slot_us.p99", slot.Quantile(0.99), "us");
  layers.Set("sched.rows_per_wave",
             first.waves > 0 ? static_cast<double>(first.rows) / static_cast<double>(first.waves) : 0.0,
             "count");
  layers.Set("cache.admit_rejects",
             static_cast<double>(CounterTotal(*first.registry, "rc_cache_admit_rejects")), "count");
  layers.Set("cache.evictions", static_cast<double>(CounterTotal(*first.registry, "rc_cache_evictions")),
             "count");
  layers.Set("cache.probe_retries",
             static_cast<double>(CounterTotal(*first.registry, "rc_cache_probe_retries")), "count");

  const auto summary = SummarizeSpans(spans);
  PrintSpanSummary(summary);
  const std::string path =
      options.out_dir + "/spans-sched_month-" + std::to_string(options.seed) + ".json";
  if (WriteSpans(path, spans)) std::cout << "spans written to " << path << "\n";

  static const rc::trace::VmSizeCatalog catalog;
  ProbeContext ctx;
  ctx.store = rig->store.get();
  ctx.client = first.client.get();
  ctx.models = {kModel};
  for (size_t i = 0; i < rig->requests.size() && ctx.inputs.size() < 20'000; ++i) {
    ctx.inputs.push_back(rc::core::InputsFromVm(*rig->requests[i].source, catalog));
  }
  ctx.features = &rig->features;
  ctx.classifiers[kModel] = rig->model.get();
  RunLayerProbes(ctx, layers);
}

}  // namespace rcbench
