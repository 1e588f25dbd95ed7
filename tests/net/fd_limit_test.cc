// Descriptor-limit robustness for both listeners. At RLIMIT_NOFILE every
// accept() fails with EMFILE and the pending connection stays queued, so a
// listener that simply retries spins on it forever — the RCNP worker then
// stops serving the connections it already owns. Each case runs in a forked
// child (the lowered limit is process-wide): the child pins the process at
// its descriptor limit, opens excess connections, and checks that they are
// closed and counted while an already-connected client keeps getting
// answers within its deadline.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/client.h"
#include "src/core/featurizer.h"
#include "src/core/offline_pipeline.h"
#include "src/net/admin_server.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/store/kv_store.h"
#include "src/trace/workload_model.h"

namespace rc::net {
namespace {

constexpr int kExcessConnections = 8;

// Ends the forked child at once with `error` on stderr. No unwinding: a
// wedged listener would hang its destructor's join.
[[noreturn]] void ChildFail(const std::string& error) {
  std::fprintf(stderr, "child: %s\n", error.c_str());
  std::fflush(nullptr);
  ::_exit(1);
}

// Runs `body` in a forked child; true if it finished without ChildFail.
bool RunInChild(const std::function<void()>& body) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::alarm(120);  // a wedged child dies instead of hanging the suite
    body();
    std::fflush(nullptr);
    ::_exit(0);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Lowers the soft descriptor limit to just above the highest open
// descriptor and fills every free one below it, so the process's next
// descriptor-creating call fails with EMFILE. Returns the filler fds.
std::vector<int> PinAtDescriptorLimit() {
  int max_fd = -1;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    const int dir_fd = ::dirfd(dir);
    while (dirent* entry = ::readdir(dir)) {
      const int fd = std::atoi(entry->d_name);
      if (entry->d_name[0] != '.' && fd != dir_fd && fd > max_fd) max_fd = fd;
    }
    ::closedir(dir);
  }
  rlimit limit{};
  ::getrlimit(RLIMIT_NOFILE, &limit);
  limit.rlim_cur = static_cast<rlim_t>(max_fd + 1);
  ::setrlimit(RLIMIT_NOFILE, &limit);
  std::vector<int> fillers;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (fd < 0) break;
    fillers.push_back(fd);
  }
  return fillers;
}

void ReleaseDescriptorLimit(const std::vector<int>& fillers) {
  for (int fd : fillers) ::close(fd);
  rlimit limit{};
  ::getrlimit(RLIMIT_NOFILE, &limit);
  limit.rlim_cur = limit.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &limit);
}

// Sockets created while descriptors are still available; connect() needs
// no new descriptor, so these can connect after the process is pinned.
std::vector<int> MakeSockets(int n) {
  std::vector<int> fds;
  for (int i = 0; i < n; ++i) fds.push_back(::socket(AF_INET, SOCK_STREAM, 0));
  return fds;
}

bool ConnectLoopback(int fd, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

// True once the peer has closed `fd` (EOF or reset) within `timeout_ms`.
bool ClosedByPeer(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return false;
  char byte;
  const ssize_t r = ::recv(fd, &byte, 1, 0);
  return r == 0 || (r < 0 && errno == ECONNRESET);
}

// Connects every socket and checks each one is shed by the listener.
std::string ExpectShed(const std::vector<int>& sockets, uint16_t port) {
  for (int fd : sockets) {
    if (!ConnectLoopback(fd, port)) return "excess connect failed outright";
  }
  for (int fd : sockets) {
    if (!ClosedByPeer(fd, 5000)) return "an excess connection was not closed";
  }
  return "";
}

TEST(FdLimitTest, RcnpWorkerKeepsServingItsConnectionsAtTheLimit) {
  rc::trace::WorkloadConfig workload;
  workload.target_vm_count = 1500;
  workload.num_subscriptions = 80;
  workload.seed = 77;
  const rc::trace::Trace trace = rc::trace::WorkloadModel(workload).Generate();
  rc::core::PipelineConfig pipeline_config;
  pipeline_config.rf.num_trees = 4;
  pipeline_config.gbt.num_rounds = 4;
  const rc::core::TrainedModels trained =
      rc::core::OfflinePipeline(pipeline_config).Run(trace);
  rc::core::ClientInputs inputs;
  const rc::trace::VmSizeCatalog catalog;
  for (const auto& vm : trace.vms()) {
    if (trained.feature_data.contains(vm.subscription_id)) {
      inputs = rc::core::InputsFromVm(vm, catalog);
      break;
    }
  }

  EXPECT_TRUE(RunInChild([&] {
    rc::store::KvStore store;
    rc::core::OfflinePipeline::Publish(trained, store);
    rc::core::Client core_client(&store, rc::core::ClientConfig{});
    if (!core_client.Initialize()) ChildFail("core client did not initialize");
    rc::obs::MetricsRegistry registry;
    ServerConfig server_config;
    server_config.num_workers = 1;  // the spinning worker would own everyone
    server_config.metrics = &registry;
    Server server(&core_client, server_config);
    if (!server.Start()) ChildFail("server did not start");
    ClientConfig pool_config;
    pool_config.port = server.port();
    pool_config.pool_size = 1;
    pool_config.default_deadline_us = 2'000'000;
    Client healthy(pool_config);
    core::Prediction p;
    if (healthy.PredictSingle("VM_P95UTIL", inputs, &p) != Status::kOk) {
      ChildFail("warm-up call failed");
    }
    std::vector<int> excess = MakeSockets(kExcessConnections);
    const std::vector<int> fillers = PinAtDescriptorLimit();
    for (int fd : excess) {
      if (!ConnectLoopback(fd, server.port())) ChildFail("excess connect failed");
    }
    // The excess connects are now queued on the listener, and every accept
    // fails with EMFILE. The healthy connection must still be answered.
    for (int i = 0; i < 50; ++i) {
      if (healthy.PredictSingle("VM_P95UTIL", inputs, &p) != Status::kOk) {
        ChildFail("healthy call " + std::to_string(i) + " was not answered");
      }
    }
    for (int fd : excess) {
      if (!ClosedByPeer(fd, 5000)) ChildFail("an excess connection was not closed");
    }
    const uint64_t rejected =
        registry.GetCounter("rc_net_conn_rejected", {{"reason", "fd_limit"}})
            .Value();
    if (rejected < kExcessConnections) {
      ChildFail("rc_net_conn_rejected counted " + std::to_string(rejected));
    }
    ReleaseDescriptorLimit(fillers);
    for (int fd : excess) ::close(fd);
    // With descriptors available again, new connections are served.
    Client fresh(pool_config);
    if (fresh.PredictSingle("VM_P95UTIL", inputs, &p) != Status::kOk) {
      ChildFail("new connection after the limit was not served");
    }
    server.Stop();
  })) << "see the child's stderr above";
}

TEST(FdLimitTest, AdminListenerShedsConnectionsAtTheLimit) {
  EXPECT_TRUE(RunInChild([] {
    rc::obs::MetricsRegistry registry;
    AdminServerConfig config;
    config.metrics = &registry;
    AdminServer admin(config);
    admin.Handle("/ping", [] {
      return AdminServer::Response{200, "text/plain", "pong\n"};
    });
    if (!admin.Start()) ChildFail("admin server did not start");
    std::vector<int> excess = MakeSockets(kExcessConnections);
    const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
    const std::vector<int> fillers = PinAtDescriptorLimit();
    const std::string shed = ExpectShed(excess, admin.port());
    if (!shed.empty()) ChildFail(shed);
    const uint64_t rejected =
        registry.GetCounter("rc_net_conn_rejected", {{"reason", "fd_limit"}})
            .Value();
    if (rejected < kExcessConnections) {
      ChildFail("rc_net_conn_rejected counted " + std::to_string(rejected));
    }
    ReleaseDescriptorLimit(fillers);
    // The listener is still healthy once descriptors free up.
    if (!ConnectLoopback(probe, admin.port())) ChildFail("probe connect failed");
    const std::string request = "GET /ping HTTP/1.0\r\n\r\n";
    if (::send(probe, request.data(), request.size(), 0) !=
        static_cast<ssize_t>(request.size())) {
      ChildFail("probe send failed");
    }
    std::string response;
    char buf[256];
    for (;;) {
      pollfd p{probe, POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) ChildFail("probe got no response");
      const ssize_t r = ::recv(probe, buf, sizeof(buf), 0);
      if (r <= 0) break;
      response.append(buf, static_cast<size_t>(r));
    }
    if (response.rfind("HTTP/1.0 200", 0) != 0) {
      ChildFail("probe response: " + response.substr(0, 40));
    }
    ::close(probe);
    for (int fd : excess) ::close(fd);
    admin.Stop();
  })) << "see the child's stderr above";
}

}  // namespace
}  // namespace rc::net
