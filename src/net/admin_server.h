// Minimal HTTP/1.0 introspection endpoint (DESIGN.md "Tracing &
// introspection"). One thread runs a non-blocking epoll loop (the same
// EINTR-safe IO helpers as the RCNP server) serving GET-only routes —
// rc_server mounts /metrics, /healthz, /varz and /tracez on it. It is an
// operator surface, deliberately not a web server:
//
//  * HTTP/1.0 semantics: one request per connection, response carries
//    Content-Length and Connection: close, the socket closes after the
//    flush. No keep-alive, no chunking, no TLS.
//  * requests are read until the blank line ending the header block;
//    dribbled requests (byte-at-a-time) just keep buffering. A request
//    exceeding max_request_bytes without completing is answered 414 and the
//    connection closed; a request line that is not `GET <path> HTTP/x.y` is
//    answered 400. The listener survives all of this — one bad client never
//    takes the endpoint down (pinned by tests/net/admin_server_test.cc).
//  * handlers run on the admin thread and must be thread-safe; they return
//    a complete body (status, content type, bytes). The query string is
//    stripped before route lookup; unknown paths are 404.
#ifndef RC_SRC_NET_ADMIN_SERVER_H_
#define RC_SRC_NET_ADMIN_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/server.h"
#include "src/obs/metrics.h"

namespace rc::net {

struct AdminServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read back via port()
  // Ceiling on buffered request bytes before the header block completes;
  // beyond it the request is answered 414 (URI/headers too long).
  size_t max_request_bytes = 8192;
  // Registry receiving rc_net_conn_rejected{reason="fd_limit"}; null = a
  // private one.
  rc::obs::MetricsRegistry* metrics = nullptr;
};

class AdminServer {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  using Handler = std::function<Response()>;

  explicit AdminServer(AdminServerConfig config);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Registers `handler` for GET `path` (exact match after the query string
  // is stripped). Must be called before Start().
  void Handle(std::string path, Handler handler);

  // Binds, listens, and starts the admin thread. False on socket errors.
  bool Start();
  // Closes every connection and joins the thread. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

 private:
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> in;
    std::string out;
    size_t out_off = 0;
    bool responded = false;  // response queued; close once it drains
    bool epollout_armed = false;
  };

  void Loop();
  void AcceptReady();
  // False when the connection was closed and erased.
  bool ReadReady(Conn& conn);
  bool WriteReady(Conn& conn);
  // Inspects conn.in; once the header block (or an error condition) is
  // complete, queues the response and marks the connection responded.
  void MaybeRespond(Conn& conn);
  void QueueResponse(Conn& conn, const Response& response);
  void CloseConn(int fd);
  bool UpdateEpollOut(Conn& conn, bool want);

  AdminServerConfig config_;
  std::unordered_map<std::string, Handler> routes_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  FdReserve fd_reserve_;
  std::unique_ptr<rc::obs::MetricsRegistry> owned_metrics_;
  rc::obs::Counter* rejected_fd_limit_ = nullptr;
};

}  // namespace rc::net

#endif  // RC_SRC_NET_ADMIN_SERVER_H_
