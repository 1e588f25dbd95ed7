// End-to-end trace propagation: a sampled PredictSingle through the pooled
// TCP client against a live server must produce ONE connected span tree on
// /tracez — client send, server frame read, client predict, result-cache
// probe, engine execute, response write. Also pins v1 wire compatibility: a
// hand-built v1 frame round-trips against the v2 server and the reply parses
// as v1.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/client.h"
#include "src/core/offline_pipeline.h"
#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/obs/trace_context.h"
#include "src/store/kv_store.h"
#include "src/trace/workload_model.h"

namespace rc::net {
namespace {

using rc::core::ClientInputs;
using rc::core::OfflinePipeline;
using rc::core::PipelineConfig;
using rc::core::TrainedModels;
using rc::store::KvStore;
using rc::trace::Trace;
using rc::trace::WorkloadConfig;
using rc::trace::WorkloadModel;

struct SpanInfo {
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

// Pulls every span object out of a TracezJson rendering, keyed by name, in
// rendering (start-time) order. A name can repeat, so each maps to a list.
std::map<std::string, std::vector<SpanInfo>> ParseSpans(const std::string& json) {
  std::map<std::string, std::vector<SpanInfo>> spans;
  auto hex_after = [&json](size_t from, const char* key) -> uint64_t {
    size_t k = json.find(key, from);
    if (k == std::string::npos) return 0;
    return std::stoull(json.substr(k + std::strlen(key), 20), nullptr, 16);
  };
  for (size_t pos = json.find("{\"name\":\""); pos != std::string::npos;
       pos = json.find("{\"name\":\"", pos + 1)) {
    size_t name_start = pos + std::strlen("{\"name\":\"");
    size_t name_end = json.find('"', name_start);
    std::string name = json.substr(name_start, name_end - name_start);
    SpanInfo info;
    info.span_id = hex_after(name_end, "\"span_id\":\"0x");
    info.parent_span_id = hex_after(name_end, "\"parent_span_id\":\"0x");
    spans[name].push_back(info);
  }
  return spans;
}

class TracePropagationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.target_vm_count = 2000;
    config.num_subscriptions = 100;
    config.seed = 99;
    trace_ = new Trace(WorkloadModel(config).Generate());
    PipelineConfig pipeline_config;
    pipeline_config.rf.num_trees = 4;
    pipeline_config.gbt.num_rounds = 4;
    OfflinePipeline pipeline(pipeline_config);
    trained_ = new TrainedModels(pipeline.Run(*trace_));
  }

  void SetUp() override {
    rc::obs::TraceStore::Global().Clear();
    store_ = std::make_unique<KvStore>();
    OfflinePipeline::Publish(*trained_, *store_);
    core_client_ =
        std::make_unique<rc::core::Client>(store_.get(), rc::core::ClientConfig{});
    ASSERT_TRUE(core_client_->Initialize());
    ServerConfig server_config;
    server_config.num_workers = 2;
    server_ = std::make_unique<Server>(core_client_.get(), server_config);
    ASSERT_TRUE(server_->Start());
  }

  void TearDown() override {
    rc::obs::Tracer::Global().SetSampleEvery(0);
    server_.reset();
    core_client_.reset();
    store_.reset();
    rc::obs::TraceStore::Global().Clear();
  }

  ClientInputs KnownInputs() const {
    static const rc::trace::VmSizeCatalog catalog;
    for (const auto& vm : trace_->vms()) {
      if (trained_->feature_data.contains(vm.subscription_id)) {
        return rc::core::InputsFromVm(vm, catalog);
      }
    }
    ADD_FAILURE() << "no known subscription";
    return {};
  }

  // The write span and server finish land on server threads that may still
  // be running when the client call returns; poll until the tree is whole.
  std::string WaitForSpans(const std::vector<std::string>& names,
                           int attempts = 200) {
    std::string json;
    for (int i = 0; i < attempts; ++i) {
      json = rc::obs::TraceStore::Global().TracezJson();
      bool all = true;
      for (const auto& name : names) {
        if (json.find(name) == std::string::npos) all = false;
      }
      if (all) return json;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return json;
  }

  static const Trace* trace_;
  static const TrainedModels* trained_;
  std::unique_ptr<KvStore> store_;
  std::unique_ptr<rc::core::Client> core_client_;
  std::unique_ptr<Server> server_;
};

const Trace* TracePropagationTest::trace_ = nullptr;
const TrainedModels* TracePropagationTest::trained_ = nullptr;

TEST_F(TracePropagationTest, SampledRequestFormsOneConnectedTree) {
  rc::obs::Tracer::Global().SetSampleEvery(1);
  ClientConfig config;
  config.port = server_->port();
  config.pool_size = 1;
  config.default_deadline_us = 5'000'000;
  Client client(config);
  core::Prediction p;
  ASSERT_EQ(client.PredictSingle("VM_AVGUTIL", KnownInputs(), &p), Status::kOk);

  const std::vector<std::string> expected = {
      "netclient/call",      "net/read_frame",    "net/predict",    "client/predict",
      "client/result_cache", "client/exec_batch", "net/write_frame"};
  std::string json = WaitForSpans(expected);
  auto spans = ParseSpans(json);
  for (const auto& name : expected) {
    ASSERT_TRUE(spans.contains(name)) << "missing " << name << " in\n" << json;
  }
  ASSERT_EQ(spans["client/predict"].size(), 1u) << json;
  auto span = [&spans](const std::string& name) { return spans[name].front(); };

  // One retained trace: every span in one tree, rooted at the client call.
  EXPECT_EQ(span("netclient/call").parent_span_id, 0u);
  const uint64_t root = span("netclient/call").span_id;
  EXPECT_EQ(span("net/read_frame").parent_span_id, root);
  EXPECT_EQ(span("net/predict").parent_span_id, root);
  EXPECT_EQ(span("net/write_frame").parent_span_id, root);
  // The server calls the client, which probes its result cache and, on the
  // miss, scores the row on the same thread.
  const uint64_t predict = span("client/predict").span_id;
  EXPECT_EQ(span("client/predict").parent_span_id, span("net/predict").span_id);
  EXPECT_EQ(span("client/result_cache").parent_span_id, predict);
  EXPECT_EQ(span("client/exec_batch").parent_span_id, predict);

  EXPECT_GE(rc::obs::TraceStore::Global().finished_count(), 1u);
}

TEST_F(TracePropagationTest, UnsampledRequestsRecordNothing) {
  rc::obs::Tracer::Global().SetSampleEvery(0);
  ClientConfig config;
  config.port = server_->port();
  config.pool_size = 1;
  Client client(config);
  core::Prediction p;
  ASSERT_EQ(client.PredictSingle("VM_AVGUTIL", KnownInputs(), &p), Status::kOk);
  EXPECT_EQ(rc::obs::TraceStore::Global().finished_count(), 0u);
  std::string json = rc::obs::TraceStore::Global().TracezJson();
  EXPECT_EQ(json.find("netclient/call"), std::string::npos);
}

// A legacy v1 peer: 16-byte header, no flags byte, no trace block. The v2
// server must parse the request and answer in v1 so the peer can parse the
// reply. Driven over a raw socket because the pooled client always speaks v2.
TEST_F(TracePropagationTest, V1FrameRoundTripsAgainstV2Server) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // A health request as a v1 peer would frame it: empty body, v1 header.
  std::vector<uint8_t> v1_frame;
  AppendFrame(v1_frame, Opcode::kHealth, 424242, {}, kProtocolVersionV1);
  ASSERT_EQ(v1_frame.size(), kLengthPrefixBytes + kHeaderBytesV1);
  ASSERT_EQ(::send(fd, v1_frame.data(), v1_frame.size(), 0),
            static_cast<ssize_t>(v1_frame.size()));

  // Read length prefix, then the payload.
  auto read_exact = [fd](void* buf, size_t n) {
    uint8_t* out = static_cast<uint8_t*>(buf);
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::recv(fd, out + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  };
  uint32_t payload_len = 0;
  ASSERT_TRUE(read_exact(&payload_len, sizeof(payload_len)));
  std::vector<uint8_t> payload(payload_len);
  ASSERT_TRUE(read_exact(payload.data(), payload_len));
  ::close(fd);

  rc::ml::ByteReader r(payload.data(), payload.size());
  FrameHeader header;
  ASSERT_EQ(DecodeHeader(r, &header), WireStatus::kOk);
  EXPECT_EQ(header.version, kProtocolVersionV1);  // reply echoes the version
  EXPECT_EQ(header.request_id, 424242u);
  WireStatus remote;
  HealthResponse health;
  std::string error;
  ASSERT_TRUE(DecodeHealthResponse(r, &remote, &health, &error));
  EXPECT_EQ(remote, WireStatus::kOk);
  EXPECT_EQ(health.num_models, 6u);
}

}  // namespace
}  // namespace rc::net
