// rc_predict: trains Resource Central on a trace CSV (produced by
// rc_trace_gen) and serves predictions for VMs of a chosen window,
// printing prediction vs ground truth — a command-line tour of the
// offline + online halves of the system.
//
//   rc_trace_gen --vms 20000 --out trace.csv
//   rc_predict --trace trace.csv --days 90 --train-days 60 --count 10
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "src/common/table_printer.h"
#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/store/kv_store.h"
#include "src/trace/trace_io.h"
#include "tools/int_flag.h"

namespace {

void Usage() {
  std::cerr <<
      "usage: rc_predict --trace PATH [options]\n"
      "  --days D        observation window of the trace in days (default 90)\n"
      "  --train-days T  training window in days (default 2/3 of --days)\n"
      "  --count N       number of test VMs to predict (default 10)\n"
      "  --model NAME    model to query (default all six)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, model_filter;
  int days = 90, train_days = -1, count = 10;
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto int_flag = [&](const char* flag, long long lo, long long hi) {
      return static_cast<int>(rc::tools::ParseIntFlag(flag, need(flag), lo, hi));
    };
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = need("--trace");
    } else if (std::strcmp(argv[i], "--days") == 0) {
      days = int_flag("--days", 1, kIntMax);
    } else if (std::strcmp(argv[i], "--train-days") == 0) {
      train_days = int_flag("--train-days", 0, kIntMax);
    } else if (std::strcmp(argv[i], "--count") == 0) {
      count = int_flag("--count", 0, kIntMax);
    } else if (std::strcmp(argv[i], "--model") == 0) {
      model_filter = need("--model");
    } else {
      Usage();
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }
  if (trace_path.empty()) {
    Usage();
    return 2;
  }
  if (train_days < 0) train_days = days * 2 / 3;

  std::cerr << "loading " << trace_path << "...\n";
  rc::trace::Trace trace =
      rc::trace::ReadVmTableFile(trace_path, static_cast<rc::SimDuration>(days) * rc::kDay);
  std::cerr << "training on days 0-" << train_days << " (" << trace.vm_count()
            << " VMs total)...\n";

  rc::core::PipelineConfig config;
  config.train_end = static_cast<rc::SimTime>(train_days) * rc::kDay;
  rc::core::OfflinePipeline pipeline(config);
  rc::core::TrainedModels trained = pipeline.Run(trace);
  rc::store::KvStore store;
  rc::core::OfflinePipeline::Publish(trained, store);
  rc::core::Client client(&store, rc::core::ClientConfig{});
  if (!client.Initialize()) {
    std::cerr << "client initialization failed\n";
    return 1;
  }

  static const rc::trace::VmSizeCatalog catalog;
  auto test_vms = trace.VmsCreatedIn(static_cast<rc::SimTime>(train_days) * rc::kDay,
                                     static_cast<rc::SimTime>(days) * rc::kDay);
  rc::TablePrinter table({"vm", "model", "prediction", "score", "ground truth"});
  int shown = 0;
  for (const auto* vm : test_vms) {
    if (shown >= count) break;
    bool any = false;
    for (rc::Metric metric : rc::kAllMetrics) {
      std::string name = MetricModelName(metric);
      if (!model_filter.empty() && name != model_filter) continue;
      rc::core::Prediction p =
          client.PredictSingle(name, rc::core::InputsFromVm(*vm, catalog));
      std::string truth = "-";
      switch (metric) {
        case rc::Metric::kAvgCpu:
          truth = BucketLabel(metric, rc::UtilizationBucket(vm->avg_cpu));
          break;
        case rc::Metric::kP95Cpu:
          truth = BucketLabel(metric, rc::UtilizationBucket(vm->p95_max_cpu));
          break;
        case rc::Metric::kLifetime:
          truth = BucketLabel(metric, rc::LifetimeBucket(vm->lifetime()));
          break;
        default:
          break;  // deployment/class ground truth needs group context
      }
      table.AddRow({std::to_string(vm->vm_id), name,
                    p.valid ? BucketLabel(metric, p.bucket) : "no-prediction",
                    p.valid ? rc::TablePrinter::Fmt(p.score, 2) : "-", truth});
      any = true;
    }
    if (any) ++shown;
  }
  table.Print(std::cout);
  return 0;
}
