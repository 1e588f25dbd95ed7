// rc_server: the Resource Central prediction service as a runnable daemon.
// Trains the six models (from a synthetic workload by default, or a trace
// CSV produced by rc_trace_gen), publishes them to the in-process store,
// and serves PredictSingle / PredictMany / Health over the rc::net framed
// TCP protocol until SIGINT/SIGTERM.
//
//   rc_server --port 7071 --workers 4
//   rc_server --trace trace.csv --train-days 60
//   rc_server --smoke        # self-drive a few requests, dump metrics, exit
//
// The server's rc_net_* instruments and the embedded client's rc_client_*
// instruments share one registry; the full Prometheus exposition is dumped
// on exit (and in --smoke mode this is the primary output, which
// tools/check_all.sh greps for the required metric families).
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/net/admin_server.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/export.h"
#include "src/obs/process_metrics.h"
#include "src/obs/trace_context.h"
#include "src/store/kv_store.h"
#include "src/trace/trace_io.h"
#include "src/trace/workload_model.h"
#include "tools/int_flag.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

void Usage() {
  std::cerr <<
      "usage: rc_server [options]\n"
      "  --port P        listen port (default 7071; 0 = ephemeral)\n"
      "  --workers N     epoll worker threads (default 4)\n"
      "  --vms N         synthetic workload size when no trace given (default 20000)\n"
      "  --trace PATH    train from a trace CSV instead of the synthetic workload\n"
      "  --days D        trace observation window in days (default 90)\n"
      "  --train-days T  training window in days (default 2/3 of --days)\n"
      "  --admin-port P  HTTP introspection endpoint (/metrics /healthz /varz\n"
      "                  /tracez) on 127.0.0.1:P (0 = ephemeral; off by default)\n"
      "  --trace-sample N  trace one request in N end to end (default 0 = off;\n"
      "                  sampled traces appear on /tracez)\n"
      "  --probe N       self-issue N PredictSingle requests through a pooled\n"
      "                  TCP client after startup (populates /tracez)\n"
      "  --smoke         serve, self-issue a few requests, dump metrics, exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  int port = 7071;
  int admin_port = -1;  // <0 = no admin endpoint
  long long trace_sample = 0;
  int probe = 0;
  int workers = 4;
  int64_t vms = 20'000;
  int days = 90, train_days = -1;
  std::string trace_path;
  bool smoke = false;
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  constexpr long long kPortMax = 65535;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto int_flag = [&](const char* flag, long long lo, long long hi) {
      return rc::tools::ParseIntFlag(flag, need(flag), lo, hi);
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<int>(int_flag("--port", 0, kPortMax));
    } else if (std::strcmp(argv[i], "--admin-port") == 0) {
      admin_port = static_cast<int>(int_flag("--admin-port", 0, kPortMax));
    } else if (std::strcmp(argv[i], "--trace-sample") == 0) {
      trace_sample = int_flag("--trace-sample", 0, std::numeric_limits<long long>::max());
    } else if (std::strcmp(argv[i], "--probe") == 0) {
      probe = static_cast<int>(int_flag("--probe", 0, kIntMax));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      workers = static_cast<int>(int_flag("--workers", 1, 1024));
    } else if (std::strcmp(argv[i], "--vms") == 0) {
      vms = int_flag("--vms", 1, std::numeric_limits<int64_t>::max());
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = need("--trace");
    } else if (std::strcmp(argv[i], "--days") == 0) {
      days = static_cast<int>(int_flag("--days", 1, kIntMax));
    } else if (std::strcmp(argv[i], "--train-days") == 0) {
      train_days = static_cast<int>(int_flag("--train-days", 0, kIntMax));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      Usage();
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }
  if (train_days < 0) train_days = days * 2 / 3;

  rc::trace::Trace trace = [&] {
    if (!trace_path.empty()) {
      std::cerr << "loading " << trace_path << "...\n";
      return rc::trace::ReadVmTableFile(trace_path,
                                        static_cast<rc::SimDuration>(days) * rc::kDay);
    }
    rc::trace::WorkloadConfig workload;
    workload.target_vm_count = vms;
    workload.num_subscriptions = std::max<int64_t>(vms / 25, 10);
    workload.seed = 7;
    return rc::trace::WorkloadModel(workload).Generate();
  }();
  std::cerr << "training on " << trace.vm_count() << " VMs (days 0-" << train_days << ")...\n";

  rc::core::PipelineConfig pipeline_config;
  pipeline_config.train_end = static_cast<rc::SimTime>(train_days) * rc::kDay;
  if (smoke) {  // smoke mode favours startup time over model quality
    pipeline_config.rf.num_trees = 8;
    pipeline_config.gbt.num_rounds = 8;
  }
  rc::core::OfflinePipeline pipeline(pipeline_config);
  rc::core::TrainedModels trained = pipeline.Run(trace);
  rc::store::KvStore store;
  rc::core::OfflinePipeline::Publish(trained, store);

  // One registry for the whole process: rc_client_* (embedded prediction
  // client) and rc_net_* (server) families in a single exposition.
  rc::obs::MetricsRegistry registry;
  rc::core::ClientConfig client_config;
  client_config.metrics = &registry;
  rc::core::Client client(&store, client_config);
  if (!client.Initialize()) {
    std::cerr << "client initialization failed\n";
    return 1;
  }

  rc::net::ServerConfig server_config;
  server_config.port = static_cast<uint16_t>(smoke ? 0 : port);
  server_config.num_workers = workers;
  server_config.metrics = &registry;
  rc::net::Server server(&client, server_config);
  if (!server.Start()) {
    std::cerr << "failed to bind 127.0.0.1:" << port << "\n";
    return 1;
  }
  std::cerr << "rc_server listening on 127.0.0.1:" << server.port() << " with " << workers
            << " workers, " << trained.models.size() << " models\n";

  if (trace_sample > 0) {
    rc::obs::Tracer::Global().SetSampleEvery(static_cast<uint64_t>(trace_sample));
  }

  std::unique_ptr<rc::net::AdminServer> admin;
  if (admin_port >= 0) {
    rc::obs::RegisterBuildInfo(registry);
    rc::net::AdminServerConfig admin_config;
    admin_config.port = static_cast<uint16_t>(admin_port);
    admin_config.metrics = &registry;
    admin = std::make_unique<rc::net::AdminServer>(admin_config);
    admin->Handle("/metrics", [&registry] {
      rc::obs::UpdateProcessGauges(registry);
      return rc::net::AdminServer::Response{
          200, "text/plain; version=0.0.4; charset=utf-8",
          rc::obs::PrometheusText(registry)};
    });
    admin->Handle("/healthz", [&client] {
      rc::core::HealthSnapshot h = client.Health();
      const uint64_t now_ns = rc::obs::NowNs();
      std::string body;
      body += std::string("status: ") + (h.healthy() ? "ok" : "degraded") + "\n";
      body += std::string("degraded_reason: ") + rc::core::ToString(h.degraded) + "\n";
      body += std::string("breaker: ") + (h.breaker_open ? "open" : "closed") + "\n";
      body += "consecutive_store_failures: " +
              std::to_string(h.consecutive_store_failures) + "\n";
      for (const auto& m : h.models) {
        double age_s = m.loaded_at_ns != 0 && now_ns > m.loaded_at_ns
                           ? static_cast<double>(now_ns - m.loaded_at_ns) / 1e9
                           : 0.0;
        body += "model " + m.name + " spec_version=" + std::to_string(m.spec_version) +
                " blob_version=" + std::to_string(m.blob_version) +
                " age_s=" + std::to_string(age_s) +
                " ready=" + (m.ready ? "1" : "0") + "\n";
      }
      return rc::net::AdminServer::Response{h.healthy() ? 200 : 503,
                                            "text/plain; charset=utf-8", body};
    });
    admin->Handle("/varz", [&registry, &client] {
      rc::obs::UpdateProcessGauges(registry);
      rc::core::HealthSnapshot h = client.Health();
      std::string body = "{\n";
      body += std::string("\"build\":{\"version\":\"") + rc::obs::BuildVersion() +
              "\",\"git_sha\":\"" + rc::obs::BuildGitSha() + "\",\"compiler\":\"" +
              rc::obs::BuildCompiler() + "\",\"type\":\"" + rc::obs::BuildType() +
              "\"},\n";
      body += std::string("\"health\":{\"status\":\"") +
              (h.healthy() ? "ok" : "degraded") + "\",\"degraded_reason\":\"" +
              rc::core::ToString(h.degraded) + "\",\"breaker_open\":" +
              (h.breaker_open ? "true" : "false") + "},\n";
      // JsonText renders {\n  "metrics": {...}\n}\n — splice its body in so
      // /varz is one flat object (process gauges ride along as rc_process_*).
      std::string metrics_json = rc::obs::JsonText(registry);
      body += metrics_json.substr(2, metrics_json.size() - 4);
      body += "}\n";
      return rc::net::AdminServer::Response{200, "application/json", body};
    });
    admin->Handle("/tracez", [] {
      return rc::net::AdminServer::Response{200, "application/json",
                                            rc::obs::TraceStore::Global().TracezJson()};
    });
    if (!admin->Start()) {
      std::cerr << "failed to bind admin endpoint 127.0.0.1:" << admin_port << "\n";
      return 1;
    }
    std::cerr << "admin endpoint on http://127.0.0.1:" << admin->port()
              << " (/metrics /healthz /varz /tracez)\n";
  }

  if (probe > 0) {
    // Self-issued traffic through a real pooled TCP client: exercises the
    // full client -> server -> engine path so /tracez has span
    // trees to show right after startup.
    rc::net::ClientConfig probe_config;
    probe_config.port = server.port();
    probe_config.pool_size = 2;
    rc::net::Client probe_client(probe_config);
    static const rc::trace::VmSizeCatalog probe_catalog;
    rc::core::ClientInputs probe_inputs;
    for (const auto& vm : trace.vms()) {
      if (trained.feature_data.contains(vm.subscription_id)) {
        probe_inputs = rc::core::InputsFromVm(vm, probe_catalog);
        break;
      }
    }
    int probe_ok = 0;
    for (int i = 0; i < probe; ++i) {
      rc::core::ClientInputs inputs = probe_inputs;
      inputs.deploy_hour = i % 24;
      rc::core::Prediction p;
      if (probe_client.PredictSingle("VM_AVGUTIL", inputs, &p) == rc::net::Status::kOk) {
        ++probe_ok;
      }
    }
    std::cerr << "probe: " << probe_ok << "/" << probe << " requests ok\n";
  }

  if (smoke) {
    // Self-drive: one of every opcode through the pooled client, then dump
    // the exposition for the CI grep.
    rc::net::ClientConfig pool_config;
    pool_config.port = server.port();
    pool_config.pool_size = 2;
    pool_config.metrics = &registry;
    rc::net::Client pool(pool_config);
    static const rc::trace::VmSizeCatalog catalog;
    rc::core::ClientInputs inputs;
    for (const auto& vm : trace.vms()) {
      if (trained.feature_data.contains(vm.subscription_id)) {
        inputs = rc::core::InputsFromVm(vm, catalog);
        break;
      }
    }
    rc::core::Prediction p;
    if (pool.PredictSingle("VM_AVGUTIL", inputs, &p) != rc::net::Status::kOk) {
      std::cerr << "smoke PredictSingle failed\n";
      return 1;
    }
    std::vector<rc::core::ClientInputs> batch(8, inputs);
    for (int i = 0; i < 8; ++i) batch[static_cast<size_t>(i)].deploy_hour = i;
    std::vector<rc::core::Prediction> many;
    if (pool.PredictMany("VM_P95UTIL", batch, &many) != rc::net::Status::kOk ||
        many.size() != batch.size()) {
      std::cerr << "smoke PredictMany failed\n";
      return 1;
    }
    rc::net::HealthResponse health;
    if (pool.Health(&health) != rc::net::Status::kOk || health.num_models != 6) {
      std::cerr << "smoke Health failed\n";
      return 1;
    }
    server.Stop();
    std::cout << rc::obs::PrometheusText(registry);
    std::cerr << "smoke ok: " << health.requests << " requests, " << health.predictions
              << " predictions\n";
    return 0;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::cerr << "shutting down...\n";
  server.Stop();
  std::cout << rc::obs::PrometheusText(registry);
  return 0;
}
