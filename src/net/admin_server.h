// Minimal HTTP/1.0 introspection endpoint (DESIGN.md "Tracing &
// introspection"): a one-worker instance of the epoll connection loop the
// RCNP server runs on (conn_loop.h), serving GET-only routes — rc_server
// mounts /metrics, /healthz, /varz and /tracez on it. It is an operator
// surface, deliberately not a web server:
//
//  * HTTP/1.0 semantics: one request per connection, response carries
//    Content-Length and Connection: close, the socket closes after the
//    flush. No keep-alive, no chunking, no TLS.
//  * requests are read until the blank line ending the header block;
//    dribbled requests (byte-at-a-time) just keep buffering. A request
//    exceeding kMaxRequestBytes without completing is answered 414 and the
//    connection closed. Reading stops as soon as the buffer passes that
//    bound (by at most one 4 KiB read), so a peer streaming an endless
//    header block cannot grow it further. A request line that is not
//    `GET <path> HTTP/x.y` is answered 400. The listener survives all of
//    this — one bad client never takes the endpoint down (pinned by
//    tests/net/admin_server_test.cc).
//  * handlers run on the admin thread and must be thread-safe; they return
//    a complete body (status, content type, bytes). The query string is
//    stripped before route lookup; unknown paths are 404.
#ifndef RC_SRC_NET_ADMIN_SERVER_H_
#define RC_SRC_NET_ADMIN_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/net/conn_loop.h"
#include "src/obs/metrics.h"

namespace rc::net {

struct AdminServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read back via port()
  // Registry receiving rc_net_conn_rejected{reason="fd_limit"}; null = a
  // private one.
  rc::obs::MetricsRegistry* metrics = nullptr;
};

class AdminServer : private ConnHandler {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  using Handler = std::function<Response()>;

  // Ceiling on buffered request bytes before the header block completes;
  // beyond it the request is answered 414 (URI/headers too long).
  static constexpr size_t kMaxRequestBytes = 8192;

  explicit AdminServer(AdminServerConfig config);
  ~AdminServer() override;

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  // Registers `handler` for GET `path` (exact match after the query string
  // is stripped). Must be called before Start().
  void Handle(std::string path, Handler handler);

  // Binds, listens, and starts the admin thread. False on socket errors.
  bool Start();
  // Closes every connection and joins the thread. Idempotent.
  void Stop();

  uint16_t port() const { return loop_.port(); }

 private:
  void OnRead(Conn& conn) override { MaybeRespond(conn); }
  // Inspects conn.in; once the header block (or an error condition) is
  // complete, queues the response and closes after it is flushed.
  void MaybeRespond(Conn& conn);
  void QueueResponse(Conn& conn, const Response& response);

  AdminServerConfig config_;
  std::unordered_map<std::string, Handler> routes_;
  std::unique_ptr<rc::obs::MetricsRegistry> owned_metrics_;
  rc::obs::Counter* rejected_fd_limit_ = nullptr;
  ConnLoop loop_;  // last: its worker uses everything above
};

}  // namespace rc::net

#endif  // RC_SRC_NET_ADMIN_SERVER_H_
