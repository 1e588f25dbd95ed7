#include "rcbench/common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_map>

#include "src/ml/exec_engine.h"
#include "src/obs/process_metrics.h"
#include "src/trace/workload_model.h"

namespace rcbench {

namespace {

// Every per_layer metric with its unit, as listed in BENCHMARK.json.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"net.encode_ns.single", "ns"},   {"net.encode_ns.many16", "ns"},
    {"net.decode_ns.single", "ns"},   {"net.decode_ns.many16", "ns"},
    {"net.rtt_us.p50", "us"},         {"net.rtt_us.p99", "us"},
    {"net.server_us.p50", "us"},      {"net.server_us.p99", "us"},
    {"net.bytes_per_pred", "B"},      {"core.hit_ns.p50", "ns"},
    {"core.hit_ns.p99", "ns"},        {"core.hit_preds_per_s.1t", "1/s"},
    {"core.hit_preds_per_s.4t", "1/s"}, {"core.miss_us.p50", "us"},
    {"core.miss_us.p99", "us"},       {"core.none_us.p50", "us"},
    {"core.none_us.p99", "us"},       {"core.many16_us", "us"},
    {"core.featurize_ns", "ns"},      {"core.hit_share", "ratio"},
    {"core.none_share", "ratio"},     {"core.hits_per_exec", "ratio"},
    {"core.init_s", "s"},
    {"cache.probe_ns.p50", "ns"},     {"cache.probe_ns.p99", "ns"},
    {"cache.admit_rejects", "count"}, {"cache.evictions", "count"},
    {"cache.probe_retries", "count"}, {"ml.rows_per_s.rf.b1", "1/s"},
    {"ml.rows_per_s.rf.b64", "1/s"},  {"ml.rows_per_s.gbt.b1", "1/s"},
    {"ml.rows_per_s.gbt.b64", "1/s"}, {"ml.model_bytes", "B"},
    {"store.put_us.p50", "us"},       {"store.put_us.p99", "us"},
    {"store.get_ns.p50", "ns"},       {"store.get_ns.p99", "ns"},
    {"store.loads_per_s.4t", "1/s"},  {"sched.predict_s", "s"},
    {"sched.self_s", "s"},            {"sched.predict_share", "ratio"},
    {"sched.place_us.p50", "us"},     {"sched.place_us.p99", "us"},
    {"sched.slot_us.p50", "us"},      {"sched.slot_us.p99", "us"},
    {"sched.rows_per_wave", "count"}, {"setup.trace_gen_s", "s"},
    {"setup.train_s", "s"},           {"setup.publish_s", "s"},
    {"gen.late_p99_us", "us"},        {"gen.backlog", "count"},
    {"trace.overhead_pct", "%"},
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

void MetricSet::Set(const std::string& name, double value, const std::string& unit) {
  entries_[name] = {value, unit};
}

std::string MetricSet::Json() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(name) << "\": {\"value\": " << JsonNumber(entry.first)
        << ", \"unit\": \"" << JsonEscape(entry.second) << "\"}";
  }
  out << "}";
  return out.str();
}

void MetricSet::Print(const std::string& title) const {
  std::cout << "-- " << title << "\n";
  for (const auto& [name, entry] : entries_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", entry.first);
    std::cout << "  " << name << " = " << buf << " " << entry.second << "\n";
  }
}

void RunRecord::Mismatch(const std::string& what) {
  ++mismatches;
  if (mismatch_examples.size() < 8) mismatch_examples.push_back(what);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

size_t Zipf::operator()(rc::Rng& rng) const {
  const double u = rng.NextDouble();
  const size_t i =
      static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

std::vector<uint32_t> Permutation(size_t n, rc::Rng& rng) {
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  rng.Shuffle(perm);
  return perm;
}

std::map<std::string, SpanStat> SummarizeSpans(const std::vector<Span>& spans) {
  // Children grouped under their parent; self time subtracts the union of
  // the children's intervals clipped to the parent.
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanStat> out;
  for (const Span& s : spans) {
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    double covered_ns = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>> iv;
      for (const Span* c : it->second) {
        const uint64_t a = std::max(c->start_ns, s.start_ns);
        const uint64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      uint64_t cur_a = 0, cur_b = 0;
      for (const auto& [a, b] : iv) {
        if (cur_b == 0 || a > cur_b) {
          covered_ns += static_cast<double>(cur_b - cur_a);
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered_ns += static_cast<double>(cur_b - cur_a);
    }
    SpanStat& stat = out[s.name];
    ++stat.count;
    stat.total_us += dur_us;
    stat.self_us += dur_us - covered_ns / 1000.0;
    stat.durations_us.push_back(dur_us);
  }
  return out;
}

void PrintSpanSummary(const std::map<std::string, SpanStat>& summary) {
  std::cout << "-- spans (self time = duration minus time covered by child spans)\n";
  for (const auto& [name, stat] : summary) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %-22s count %-9llu p50 %10.2f us  p99 %10.2f us  self %12.1f us  "
                  "total %12.1f us\n",
                  name.c_str(), static_cast<unsigned long long>(stat.count),
                  Percentile(stat.durations_us, 50.0), Percentile(stat.durations_us, 99.0),
                  stat.self_us, stat.total_us);
    std::cout << buf;
  }
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"fields\": [\"name\", \"id\", \"parent\", \"request_id\", \"start_ns\", "
             "\"end_ns\"], \"spans\": [\n",
             f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s[\"%s\", %llu, %llu, %llu, %llu, %llu]", i == 0 ? "" : ",\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string StampJson(const Options& options) {
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu_model\": \""
      << JsonEscape(CpuModel()) << "\", \"avx2\": "
      << (rc::ml::ExecEngine::Avx2Available() ? "true" : "false") << ", \"compiler\": \""
      << JsonEscape(rc::obs::BuildCompiler()) << "\", \"build_type\": \""
      << JsonEscape(rc::obs::BuildType()) << "\", \"source\": \""
      << JsonEscape(options.source_id) << "\", \"workload\": \"" << JsonEscape(options.workload)
      << "\", \"seed\": " << options.seed << ", \"seconds\": " << options.seconds
      << ", \"trace\": " << (options.trace ? 1 : 0) << "}";
  return out.str();
}

SixModels BuildSixModels(uint64_t seed) {
  // The characterization workload and pipeline settings of the repository's
  // reproduction benches (30k VMs over three months; 16-tree forests and
  // 40-round boosted trees trained on the first two months).
  constexpr int64_t kVms = 30'000;
  SixModels out;
  uint64_t t0 = NowNs();
  rc::trace::WorkloadConfig trace_config;
  trace_config.target_vm_count = kVms;
  trace_config.num_subscriptions = static_cast<int>(kVms / 25);
  trace_config.duration = 90 * rc::kDay;
  trace_config.seed = seed;
  out.trace = rc::trace::WorkloadModel(trace_config).Generate();
  uint64_t t1 = NowNs();

  rc::core::PipelineConfig pipeline_config;
  pipeline_config.train_begin = 0;
  pipeline_config.train_end = 60 * rc::kDay;
  pipeline_config.rf.num_trees = 16;
  pipeline_config.rf.tree.max_depth = 10;
  pipeline_config.rf.tree.min_samples_leaf = 16;
  pipeline_config.gbt.num_rounds = 40;
  out.trained = rc::core::OfflinePipeline(pipeline_config).Run(out.trace);
  uint64_t t2 = NowNs();

  out.store = std::make_unique<rc::store::KvStore>();
  rc::core::OfflinePipeline::Publish(out.trained, *out.store);
  uint64_t t3 = NowNs();
  out.trace_gen_s = SecondsBetween(t0, t1);
  out.train_s = SecondsBetween(t1, t2);
  out.publish_s = SecondsBetween(t2, t3);
  return out;
}

std::vector<std::string> AllModelNames() {
  std::vector<std::string> names;
  for (rc::Metric m : rc::kAllMetrics) names.emplace_back(rc::MetricModelName(m));
  return names;
}

std::vector<rc::core::Prediction> ReferenceAnswers(
    rc::store::KvStore& store, const std::vector<std::string>& models,
    const std::vector<rc::core::ClientInputs>& keys) {
  rc::core::ClientConfig config;
  config.result_cache_capacity = 0;
  rc::core::Client reference(&store, config);
  reference.Initialize();
  std::vector<rc::core::Prediction> out;
  out.reserve(models.size() * keys.size());
  for (const std::string& model : models) {
    for (const auto& inputs : keys) out.push_back(reference.PredictSingle(model, inputs));
  }
  return out;
}

ClientShares SharesBetween(const rc::core::ClientStats& before, const rc::core::ClientStats& after) {
  const double hits = static_cast<double>(after.result_hits - before.result_hits);
  const double lookups = hits + static_cast<double>(after.result_misses - before.result_misses);
  const double execs = static_cast<double>(after.model_executions - before.model_executions);
  const double nones = static_cast<double>(after.no_predictions - before.no_predictions);
  ClientShares s;
  s.hit_share = lookups > 0 ? hits / lookups : 0.0;
  s.none_share = lookups > 0 ? nones / lookups : 0.0;
  s.hits_per_exec = hits / std::max(1.0, execs);
  return s;
}

void ReportShares(const ClientShares& shares, double many_share, RunRecord& record, bool traced) {
  std::cout << "properties: hit_share " << shares.hit_share << ", none_share " << shares.none_share
            << ", hits_per_exec " << shares.hits_per_exec << ", many_share " << many_share << "\n";
  if (!traced) return;
  record.layers.Set("core.hit_share", shares.hit_share, "ratio");
  record.layers.Set("core.none_share", shares.none_share, "ratio");
  record.layers.Set("core.hits_per_exec", shares.hits_per_exec, "ratio");
}

bool SamePrediction(const rc::core::Prediction& a, const rc::core::Prediction& b) {
  if (a.valid != b.valid) return false;
  if (!a.valid) return true;
  return a.bucket == b.bucket && a.score == b.score;
}

std::string Describe(const rc::core::Prediction& p) {
  if (!p.valid) return "none";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "bucket %d score %.17g", p.bucket, p.score);
  return buf;
}

uint64_t CounterTotal(const rc::obs::MetricsRegistry& registry, const std::string& name) {
  uint64_t total = 0;
  for (const auto& c : registry.Collect().counters) {
    if (c.info.name == name) total += c.value;
  }
  return total;
}

rc::obs::Histogram::Snapshot HistogramSnapshot(const rc::obs::MetricsRegistry& registry,
                                               const std::string& name) {
  for (const auto& h : registry.Collect().histograms) {
    if (h.info.name == name) return h.hist;
  }
  return {};
}

void ZeroLayers(MetricSet& layers) {
  for (const auto& [name, unit] : kLayerMetrics) layers.Set(name, 0.0, unit);
}

}  // namespace rcbench
