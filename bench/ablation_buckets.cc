// Ablation: "formulating these models as classifiers with buckets rather
// than regression algorithms makes the metrics easier to predict" (paper
// Section 4.2). We sweep the label granularity for the P95 metric — 4, 8,
// and 16 equal utilization buckets — train at each granularity, and measure
// accuracy after mapping predictions back to the paper's 4 buckets. Finer
// granularity approaches regression; coarse buckets should win.
#include "bench/bench_common.h"
#include "src/common/table_printer.h"
#include "src/core/evaluation.h"
#include "src/ml/metrics.h"

using namespace rc;
using namespace rc::core;

namespace {

int FineBucket(double util, int granularity) {
  int b = static_cast<int>(util * granularity);
  return std::min(granularity - 1, std::max(0, b));
}

}  // namespace

int main() {
  bench::Banner("Ablation: bucketed classification vs near-regression granularity",
                "Sec. 4.2 design choice");
  trace::Trace t = bench::CharacterizationTrace(60'000);

  auto train = OfflinePipeline::BuildExamples(t, Metric::kP95Cpu, 0, 60 * kDay, false);
  auto test = OfflinePipeline::BuildExamples(t, Metric::kP95Cpu, 60 * kDay, 90 * kDay,
                                             false);
  Featurizer featurizer(Metric::kP95Cpu, FeatureEncoding::kExpanded);

  TablePrinter table({"label granularity", "fine-grained acc", "acc @ 4 buckets",
                      "model size"});
  for (int granularity : {4, 8, 16}) {
    // Re-label at this granularity. (BuildExamples labels at 4 buckets; the
    // raw P95 is recoverable from the trace via the example's inputs, so we
    // rebuild labels from the source VMs directly.)
    rc::ml::Dataset data(featurizer.feature_names());
    std::vector<double> row(featurizer.num_features());
    size_t i = 0;
    std::vector<const trace::VmRecord*> train_vms;
    for (const auto& vm : t.vms()) {
      if (vm.created < 60 * kDay) train_vms.push_back(&vm);
    }
    for (const auto& example : train) {
      featurizer.EncodeTo(example.inputs, example.history, row);
      data.AddRow(row, FineBucket(train_vms[i]->p95_max_cpu, granularity));
      ++i;
    }
    rc::ml::RandomForestConfig config;
    config.num_trees = 24;
    config.tree.max_depth = 13;
    rc::ml::RandomForest model = rc::ml::RandomForest::Fit(data, config);

    std::vector<const trace::VmRecord*> test_vms;
    for (const auto& vm : t.vms()) {
      if (vm.created >= 60 * kDay && vm.created < 90 * kDay) test_vms.push_back(&vm);
    }
    int64_t fine_correct = 0, coarse_correct = 0;
    std::vector<double> proba(static_cast<size_t>(model.num_classes()));
    for (size_t j = 0; j < test.size(); ++j) {
      featurizer.EncodeTo(test[j].inputs, test[j].history, row);
      model.PredictBatch(row.data(), 1, row.size(), proba.data());
      int predicted = rc::ml::Argmax(proba).label;
      double p95 = test_vms[j]->p95_max_cpu;
      if (predicted == FineBucket(p95, granularity)) ++fine_correct;
      // Map the fine prediction to the paper's 4 buckets via its midpoint.
      double mid = (predicted + 0.5) / granularity;
      if (UtilizationBucket(mid) == UtilizationBucket(p95)) ++coarse_correct;
    }
    double n = static_cast<double>(test.size());
    table.AddRow({std::to_string(granularity) + " buckets",
                  TablePrinter::Pct(fine_correct / n, 1),
                  TablePrinter::Pct(coarse_correct / n, 1),
                  TablePrinter::Fmt(model.SerializeTagged().size() / 1024.0, 0) + " KB"});
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: fine-grained accuracy collapses as granularity grows\n"
            << "(regression is harder), while 4-bucket accuracy stays roughly flat —\n"
            << "the paper's bucketed formulation gets the benefit at lower model cost\n";
  return 0;
}
