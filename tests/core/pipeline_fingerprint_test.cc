// Golden fingerprint of the offline pipeline's outputs. Every field of every
// labeled example (inputs, each history double bit for bit, the label), the
// feature-data snapshot at a mid-day instant, and the serialized models of a
// full Run are folded into CRC32s that were taken before the pipeline's
// observation stream was windowed and compacted. Any change to which
// observations an example sees, or in what order they are applied, moves a
// checksum; a refactor or speed-up of the pipeline must not.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/core/offline_pipeline.h"
#include "src/trace/workload_model.h"

namespace rc::core {
namespace {

using rc::trace::Trace;

const Trace& FingerprintTrace() {
  static const Trace* trace = [] {
    rc::trace::WorkloadConfig config;
    config.target_vm_count = 20000;
    config.duration = 90 * kDay;
    config.num_subscriptions = 300;
    config.seed = 4242;
    return new Trace(rc::trace::WorkloadModel(config).Generate());
  }();
  return *trace;
}

// Running CRC32 over the raw bytes of each value appended.
class Fingerprint {
 public:
  template <typename T>
  void Add(const T& value) {
    uint8_t bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    crc_ = rc::Crc32(bytes, sizeof(T), crc_);
  }
  void AddBytes(const std::vector<uint8_t>& bytes) { crc_ = rc::Crc32(bytes, crc_); }
  uint32_t value() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

void AddHistory(Fingerprint& fp, const SubscriptionFeatures& h) {
  fp.Add(h.subscription_id);
  fp.Add(h.vm_count);
  fp.Add(h.deployment_count);
  for (const auto& metric : h.bucket_frac) {
    for (double f : metric) fp.Add(f);
  }
  fp.Add(h.mean_avg_cpu);
  fp.Add(h.mean_p95_cpu);
  fp.Add(h.mean_log_lifetime);
  fp.Add(h.mean_cores);
  fp.Add(h.mean_deploy_vms);
}

uint32_t ExamplesCrc(const std::vector<LabeledExample>& examples) {
  Fingerprint fp;
  fp.Add(examples.size());
  for (const LabeledExample& e : examples) {
    const ClientInputs& in = e.inputs;
    fp.Add(in.subscription_id);
    fp.Add(in.vm_type);
    fp.Add(in.guest_os);
    fp.Add(in.role);
    fp.Add(in.cores);
    fp.Add(in.memory_gb);
    fp.Add(in.size_index);
    fp.Add(in.region);
    fp.Add(in.deploy_hour);
    fp.Add(in.deploy_dow);
    fp.Add(in.service_id);
    AddHistory(fp, e.history);
    fp.Add(e.label);
  }
  return fp.value();
}

// Entries in ascending subscription order, so the checksum does not depend
// on the hash map's iteration order.
uint32_t SnapshotCrc(const std::unordered_map<uint64_t, SubscriptionFeatures>& snapshot) {
  std::vector<std::pair<uint64_t, const SubscriptionFeatures*>> entries;
  entries.reserve(snapshot.size());
  for (const auto& [id, features] : snapshot) entries.emplace_back(id, &features);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Fingerprint fp;
  fp.Add(entries.size());
  for (const auto& [id, features] : entries) {
    fp.Add(id);
    AddHistory(fp, *features);
  }
  return fp.value();
}

struct ExamplesGolden {
  Metric metric;
  SimTime from;
  SimTime to;
  bool fft;
  size_t count;
  uint32_t crc;
};

// A window from day 0, and one that starts and ends mid-day.
constexpr SimTime kFullFrom = 0;
constexpr SimTime kFullTo = 60 * kDay;
constexpr SimTime kMidFrom = 10 * kDay + 7 * kHour + 13 * kMinute;
constexpr SimTime kMidTo = 40 * kDay + 13 * kHour + 29 * kMinute;

const ExamplesGolden kExamplesGoldens[] = {
    // clang-format off
    {Metric::kAvgCpu,      kFullFrom, kFullTo, false, 16911, 0xdf9bd5d3u},
    {Metric::kAvgCpu,      kFullFrom, kFullTo, true,  16911, 0xdf9bd5d3u},
    {Metric::kAvgCpu,      kMidFrom,  kMidTo,  false, 7357, 0xf9291240u},
    {Metric::kAvgCpu,      kMidFrom,  kMidTo,  true,  7357, 0xf9291240u},
    {Metric::kP95Cpu,      kFullFrom, kFullTo, false, 16911, 0xc8cd0926u},
    {Metric::kP95Cpu,      kFullFrom, kFullTo, true,  16911, 0xc8cd0926u},
    {Metric::kP95Cpu,      kMidFrom,  kMidTo,  false, 7357, 0x6bfb666fu},
    {Metric::kP95Cpu,      kMidFrom,  kMidTo,  true,  7357, 0x6bfb666fu},
    {Metric::kDeployVms,   kFullFrom, kFullTo, false, 3231, 0x93430babu},
    {Metric::kDeployVms,   kFullFrom, kFullTo, true,  3231, 0x93430babu},
    {Metric::kDeployVms,   kMidFrom,  kMidTo,  false, 1532, 0x4cfb5f72u},
    {Metric::kDeployVms,   kMidFrom,  kMidTo,  true,  1532, 0x4cfb5f72u},
    {Metric::kDeployCores, kFullFrom, kFullTo, false, 3231, 0x29aff1beu},
    {Metric::kDeployCores, kFullFrom, kFullTo, true,  3231, 0x29aff1beu},
    {Metric::kDeployCores, kMidFrom,  kMidTo,  false, 1532, 0xc4071e15u},
    {Metric::kDeployCores, kMidFrom,  kMidTo,  true,  1532, 0xc4071e15u},
    {Metric::kLifetime,    kFullFrom, kFullTo, false, 16911, 0x9dd7ec34u},
    {Metric::kLifetime,    kFullFrom, kFullTo, true,  16911, 0x9dd7ec34u},
    {Metric::kLifetime,    kMidFrom,  kMidTo,  false, 7357, 0x9cff7401u},
    {Metric::kLifetime,    kMidFrom,  kMidTo,  true,  7357, 0x9cff7401u},
    {Metric::kClass,       kFullFrom, kFullTo, false, 599, 0x3aaa1105u},
    {Metric::kClass,       kFullFrom, kFullTo, true,  599, 0x3aaa1105u},
    {Metric::kClass,       kMidFrom,  kMidTo,  false, 268, 0x5b180af0u},
    {Metric::kClass,       kMidFrom,  kMidTo,  true,  268, 0x5b180af0u},
    // clang-format on
};

TEST(PipelineFingerprint, ExamplesArePinned) {
  for (const ExamplesGolden& g : kExamplesGoldens) {
    auto examples =
        OfflinePipeline::BuildExamples(FingerprintTrace(), g.metric, g.from, g.to, g.fft);
    SCOPED_TRACE(::testing::Message() << MetricName(g.metric) << " [" << g.from << ", "
                                      << g.to << ") fft=" << g.fft);
    EXPECT_EQ(examples.size(), g.count);
    EXPECT_EQ(ExamplesCrc(examples), g.crc) << std::hex << ExamplesCrc(examples);
  }
}

TEST(PipelineFingerprint, FeatureSnapshotIsPinned) {
  constexpr SimTime kUntil = 45 * kDay + 5 * kHour + 41 * kMinute;
  auto plain = OfflinePipeline::BuildFeatureSnapshot(FingerprintTrace(), kUntil, false);
  auto fft = OfflinePipeline::BuildFeatureSnapshot(FingerprintTrace(), kUntil, true);
  EXPECT_EQ(plain.size(), 271u);
  EXPECT_EQ(SnapshotCrc(plain), 0x0588ec60u) << std::hex << SnapshotCrc(plain);
  EXPECT_EQ(SnapshotCrc(fft), 0x0588ec60u) << std::hex << SnapshotCrc(fft);
}

// One expected value per model, so a change names the model it moved. The
// deployment-size and lifetime values were retaken when multiclass boosting
// moved to XGBoost's round-start gradients, which changes those models on
// purpose; the forests and the binary class model kept theirs.
struct ModelGolden {
  Metric metric;
  uint32_t crc;
};

const ModelGolden kModelGoldens[] = {
    // clang-format off
    {Metric::kAvgCpu,      0x1f7bfcdbu},
    {Metric::kP95Cpu,      0x76aa12b3u},
    {Metric::kDeployVms,   0x40f0db3bu},
    {Metric::kDeployCores, 0x14284369u},
    {Metric::kLifetime,    0xb8b6c9abu},
    {Metric::kClass,       0x29a956c2u},
    // clang-format on
};

TEST(PipelineFingerprint, RunModelsArePinned) {
  PipelineConfig config;
  config.train_end = 50 * kDay + 9 * kHour;
  config.rf.num_trees = 4;
  config.rf.tree.max_depth = 8;
  config.gbt.num_rounds = 4;
  rc::obs::MetricsRegistry registry;
  config.metrics = &registry;
  TrainedModels trained = OfflinePipeline(config).Run(FingerprintTrace());
  ASSERT_EQ(trained.models.size(), 6u);
  for (const ModelGolden& g : kModelGoldens) {
    const char* name = MetricModelName(g.metric);
    SCOPED_TRACE(name);
    ASSERT_TRUE(trained.models.contains(name));
    Fingerprint fp;
    fp.AddBytes(trained.models.at(name)->SerializeTagged());
    EXPECT_EQ(fp.value(), g.crc) << std::hex << fp.value();
  }
  Fingerprint specs;
  for (const auto& [name, spec] : trained.specs) specs.AddBytes(spec.Serialize());
  EXPECT_EQ(specs.value(), 0x492c4363u) << std::hex << specs.value();
  EXPECT_EQ(SnapshotCrc(trained.feature_data), 0x282d02afu)
      << std::hex << SnapshotCrc(trained.feature_data);
}

}  // namespace
}  // namespace rc::core
