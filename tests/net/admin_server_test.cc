// AdminServer: HTTP/1.0 introspection endpoint driven over raw sockets —
// happy-path GETs, malformed request lines, oversized and dribbled
// requests, non-GET methods, unknown paths — and above all that the
// listener survives every abuse (the next well-formed request still works).
// Also pinned: a large body reaches a slow reader in full, pipelined
// requests get one response, and admin traffic stays out of the RCNP
// server's connection metrics when both share a registry.
#include "src/net/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/client.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/export.h"
#include "src/store/kv_store.h"

namespace rc::net {
namespace {

// Connects to 127.0.0.1:`port`; a positive `rcvbuf` shrinks the receive
// buffer first, so the peer's writes fill the socket sooner.
int ConnectLoopback(uint16_t port, int rcvbuf = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

// One GET over a fresh connection; the response as read until the server
// closes (the HTTP/1.0 contract), or empty if none came within 5 s.
std::string Get(uint16_t port, const std::string& path) {
  int fd = ConnectLoopback(port);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 5000) <= 0) break;
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;
    response.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return response;
}

class AdminServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<AdminServer>(AdminServerConfig{});
    server_->Handle("/ping", [] {
      return AdminServer::Response{200, "text/plain", "pong\n"};
    });
    server_->Handle("/fail", [] {
      return AdminServer::Response{503, "text/plain", "down\n"};
    });
    ASSERT_TRUE(server_->Start());
  }

  void TearDown() override { server_->Stop(); }

  int Connect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  // Sends `request` (optionally in `chunks` pieces) and reads the full
  // response until the server closes the connection.
  std::string RoundTrip(const std::string& request, size_t chunks = 1) {
    int fd = Connect();
    size_t per = (request.size() + chunks - 1) / chunks;
    for (size_t off = 0; off < request.size(); off += per) {
      size_t n = std::min(per, request.size() - off);
      EXPECT_EQ(::send(fd, request.data() + off, n, 0), static_cast<ssize_t>(n));
    }
    std::string response = ReadAll(fd);
    ::close(fd);
    return response;
  }

  static std::string ReadAll(int fd) {
    std::string out;
    char buf[4096];
    for (;;) {
      ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      out.append(buf, static_cast<size_t>(r));
    }
    return out;
  }

  std::unique_ptr<AdminServer> server_;
};

TEST_F(AdminServerTest, ServesRegisteredRoute) {
  std::string response = RoundTrip("GET /ping HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 5"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\npong\n"), std::string::npos);
}

TEST_F(AdminServerTest, HandlerStatusPropagates) {
  EXPECT_NE(RoundTrip("GET /fail HTTP/1.0\r\n\r\n").find("503 Service Unavailable"),
            std::string::npos);
}

TEST_F(AdminServerTest, QueryStringIsStripped) {
  EXPECT_NE(RoundTrip("GET /ping?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n").find("200 OK"),
            std::string::npos);
}

TEST_F(AdminServerTest, BareLfHeaderEndAccepted) {
  EXPECT_NE(RoundTrip("GET /ping HTTP/1.0\n\n").find("200 OK"), std::string::npos);
}

TEST_F(AdminServerTest, UnknownPathIs404) {
  EXPECT_NE(RoundTrip("GET /nope HTTP/1.0\r\n\r\n").find("404 Not Found"),
            std::string::npos);
}

TEST_F(AdminServerTest, NonGetIs405) {
  EXPECT_NE(RoundTrip("POST /ping HTTP/1.0\r\n\r\n").find("405 Method Not Allowed"),
            std::string::npos);
}

TEST_F(AdminServerTest, MalformedRequestLineIs400) {
  EXPECT_NE(RoundTrip("garbage\r\n\r\n").find("400 Bad Request"), std::string::npos);
  EXPECT_NE(RoundTrip("GET /ping\r\n\r\n").find("400 Bad Request"), std::string::npos);
  EXPECT_NE(RoundTrip("GET /ping FTP/9\r\n\r\n").find("400 Bad Request"),
            std::string::npos);
}

TEST_F(AdminServerTest, OversizedRequestIs414) {
  // Headers never complete and exceed AdminServer::kMaxRequestBytes (8192).
  std::string huge = "GET /ping HTTP/1.0\r\nX-Pad: " +
                     std::string(AdminServer::kMaxRequestBytes + 1000, 'a');
  EXPECT_NE(RoundTrip(huge).find("414 URI Too Long"), std::string::npos);
}

TEST_F(AdminServerTest, StreamedHeaderFloodIs414BeforeSixteenMiB) {
  // A header block that never ends, sent as fast as the socket takes it.
  // The server must stop buffering near kMaxRequestBytes (8192), answer
  // 414 and close, however fast the sender keeps the socket readable.
  constexpr uint64_t kFloodBytes = 256ull << 20;
  constexpr uint64_t kCloseBefore = 16ull << 20;
  const int fd = Connect();
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::atomic<uint64_t> sent{0};
  std::thread sender([fd, &sent] {
    const std::string head = "GET /ping HTTP/1.0\r\nX-Pad: ";
    if (::send(fd, head.data(), head.size(), MSG_NOSIGNAL) < 0) return;
    const std::string pad(64 * 1024, 'a');
    while (sent.load() < kFloodBytes) {
      const ssize_t w = ::send(fd, pad.data(), pad.size(), MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return;  // the server closed on us
      sent.fetch_add(static_cast<uint64_t>(w));
    }
  });
  const std::string response = ReadAll(fd);
  const uint64_t sent_at_close = sent.load();
  ::shutdown(fd, SHUT_RDWR);  // unblocks a sender still waiting for room
  sender.join();
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.0 414 URI Too Long", 0), 0u) << response.substr(0, 40);
  EXPECT_LT(sent_at_close, kCloseBefore);
  // The endpoint still serves the next client.
  EXPECT_NE(RoundTrip("GET /ping HTTP/1.0\r\n\r\n").find("200 OK"), std::string::npos);
}

TEST_F(AdminServerTest, DribbledRequestStillServed) {
  // One byte per send: the server buffers until the blank line arrives.
  std::string response = RoundTrip("GET /ping HTTP/1.0\r\n\r\n", /*chunks=*/22);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("pong\n"), std::string::npos);
}

TEST_F(AdminServerTest, ListenerSurvivesAbuse) {
  // A barrage of every abuse in sequence, then a clean request must work.
  RoundTrip("garbage\r\n\r\n");
  RoundTrip("GET /ping HTTP/1.0\r\nX-Pad: " +
            std::string(AdminServer::kMaxRequestBytes + 1000, 'a'));
  RoundTrip("DELETE /ping HTTP/1.0\r\n\r\n");
  {
    int fd = Connect();  // connect and slam shut mid-request
    ASSERT_EQ(::send(fd, "GET /pi", 7, 0), 7);
    ::close(fd);
  }
  EXPECT_NE(RoundTrip("GET /ping HTTP/1.0\r\n\r\n").find("200 OK"), std::string::npos);
}

TEST_F(AdminServerTest, StopIsIdempotentAndRestartable) {
  server_->Stop();
  server_->Stop();
  // A fresh server on a fresh port serves again (routes re-registered).
  AdminServer second{AdminServerConfig{}};
  second.Handle("/ping", [] {
    return AdminServer::Response{200, "text/plain", "pong\n"};
  });
  ASSERT_TRUE(second.Start());
  EXPECT_GT(second.port(), 0);
  second.Stop();
}

TEST_F(AdminServerTest, LargeBodyReachesSlowReaderThenCloses) {
  // 8 MiB cannot sit in the socket buffers, so the server must park the
  // rest of the response, wait for EPOLLOUT, and resume where it stopped.
  std::string body(8u << 20, '\0');
  for (size_t i = 0; i < body.size(); ++i) body[i] = static_cast<char>('a' + i % 26);
  AdminServer big{AdminServerConfig{}};
  big.Handle("/big", [&body] {
    return AdminServer::Response{200, "application/octet-stream", body};
  });
  ASSERT_TRUE(big.Start());
  const int fd = ConnectLoopback(big.port(), /*rcvbuf=*/16 * 1024);
  const std::string request = "GET /big HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let the writes stall
  std::string response;
  char buf[16 * 1024];
  ssize_t last = 0;
  for (int reads = 0;; ++reads) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_GT(::poll(&p, 1, 5000), 0) << "stalled after " << response.size() << " bytes";
    last = ::recv(fd, buf, sizeof(buf), 0);
    if (last <= 0) break;
    response.append(buf, static_cast<size_t>(last));
    if (reads % 64 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(fd);
  EXPECT_EQ(last, 0) << "the connection must end in an orderly close";
  const size_t head_end = response.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_NE(response.find("Content-Length: " + std::to_string(body.size())),
            std::string::npos);
  EXPECT_TRUE(response.compare(head_end + 4, std::string::npos, body) == 0)
      << "got " << response.size() - head_end - 4 << " body bytes of " << body.size();
  big.Stop();
}

TEST_F(AdminServerTest, PipelinedSecondRequestGetsNoResponse) {
  // HTTP/1.0: one request per connection. The second request in the same
  // burst is dropped with the connection, never answered.
  const std::string response =
      RoundTrip("GET /ping HTTP/1.0\r\n\r\nGET /fail HTTP/1.0\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_EQ(response.find("HTTP/1.0", 1), std::string::npos);
  EXPECT_EQ(response.find("503"), std::string::npos);
}

TEST(AdminServerSharedRegistryTest, ScrapesLeaveRcnpConnectionMetricsUnchanged) {
  // rc_server wires both servers to one registry; the rc_net_connections_*
  // and rc_net_bytes_* families describe RCNP traffic only.
  rc::obs::MetricsRegistry registry;
  rc::store::KvStore store;
  rc::core::Client core_client(&store, rc::core::ClientConfig{});
  ASSERT_TRUE(core_client.Initialize());
  ServerConfig server_config;
  server_config.num_workers = 2;
  server_config.metrics = &registry;
  Server server(&core_client, server_config);
  ASSERT_TRUE(server.Start());
  AdminServerConfig admin_config;
  admin_config.metrics = &registry;
  AdminServer admin(admin_config);
  admin.Handle("/metrics", [&registry] {
    return AdminServer::Response{200, "text/plain", rc::obs::PrometheusText(registry)};
  });
  ASSERT_TRUE(admin.Start());

  ClientConfig pool_config;
  pool_config.port = server.port();
  pool_config.pool_size = 1;
  Client rcnp(pool_config);  // private registry: only the server counts here
  HealthResponse health;
  ASSERT_EQ(rcnp.Health(&health), Status::kOk);
  auto& accepted = registry.GetCounter("rc_net_connections_accepted");
  auto& active = registry.GetGauge("rc_net_connections_active");
  auto& bytes_read = registry.GetCounter("rc_net_bytes_read");
  auto& bytes_written = registry.GetCounter("rc_net_bytes_written");
  // The server counts its write after the reply left; wait for that count.
  for (int i = 0; i < 2000 && bytes_written.Value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto snapshot = [&] {
    return std::array<double, 4>{static_cast<double>(accepted.Value()), active.Value(),
                                 static_cast<double>(bytes_read.Value()),
                                 static_cast<double>(bytes_written.Value())};
  };
  const std::array<double, 4> before = snapshot();
  EXPECT_EQ(before[0], 1);
  EXPECT_EQ(before[1], 1);
  EXPECT_GT(before[2], 0);
  EXPECT_GT(before[3], 0);
  for (int i = 0; i < 5; ++i) {
    const std::string response = Get(admin.port(), "/metrics");
    ASSERT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
    EXPECT_NE(response.find("rc_net_connections_accepted"), std::string::npos);
  }
  EXPECT_EQ(snapshot(), before);
  admin.Stop();
  server.Stop();
}

}  // namespace
}  // namespace rc::net
