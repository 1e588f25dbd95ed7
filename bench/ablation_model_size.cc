// Ablation: the Table 1 / Figure 10 tradeoff — ensemble size vs held-out
// accuracy vs serialized model bytes vs client-side execution latency.
#include <chrono>

#include "bench/bench_common.h"
#include "src/common/stats.h"
#include "src/common/table_printer.h"
#include "src/core/evaluation.h"

using namespace rc;
using namespace rc::core;

int main() {
  bench::Banner("Ablation: forest size vs accuracy vs size vs latency",
                "Table 1 / Fig. 10 tradeoff");
  trace::Trace t = bench::CharacterizationTrace(60'000);
  auto train = OfflinePipeline::BuildExamples(t, Metric::kP95Cpu, 0, 60 * kDay, false);
  auto test = OfflinePipeline::BuildExamples(t, Metric::kP95Cpu, 60 * kDay, 90 * kDay,
                                             false);
  Featurizer featurizer(Metric::kP95Cpu, FeatureEncoding::kExpanded);
  rc::ml::Dataset data = OfflinePipeline::ToDataset(train, featurizer);

  TablePrinter table({"trees", "depth", "accuracy", "model size", "median exec", "P99 exec"});
  for (int trees : {4, 8, 16, 32, 64}) {
    rc::ml::RandomForestConfig config;
    config.num_trees = trees;
    config.tree.max_depth = 13;
    rc::ml::RandomForest model = rc::ml::RandomForest::Fit(data, config);
    MetricQuality q = EvaluateModel(model, featurizer, test, 0.6);

    // Execution latency over a sample of the test set. Scratch-form scoring,
    // so the timed region measures the tree walk, not the allocator.
    std::vector<double> micros;
    std::vector<double> row(featurizer.num_features());
    std::vector<double> proba(static_cast<size_t>(model.num_classes()));
    for (size_t i = 0; i < test.size() && i < 2000; ++i) {
      featurizer.EncodeTo(test[i].inputs, test[i].history, row);
      auto start = std::chrono::steady_clock::now();
      model.PredictBatch(row.data(), 1, row.size(), proba.data());
      auto scored = rc::ml::Argmax(proba);
      auto end = std::chrono::steady_clock::now();
      (void)scored;
      micros.push_back(std::chrono::duration<double, std::micro>(end - start).count());
    }
    std::sort(micros.begin(), micros.end());
    table.AddRow({std::to_string(trees), std::to_string(config.tree.max_depth),
                  TablePrinter::Pct(q.accuracy, 1),
                  TablePrinter::Fmt(model.SerializeTagged().size() / 1024.0, 0) + " KB",
                  TablePrinter::Fmt(PercentileSorted(micros, 50.0), 1) + " us",
                  TablePrinter::Fmt(PercentileSorted(micros, 99.0), 1) + " us"});
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: accuracy saturates quickly with ensemble size while\n"
            << "model bytes and execution latency keep growing linearly — why the\n"
            << "paper's client-side models can stay in the hundreds of KB\n";
  return 0;
}
