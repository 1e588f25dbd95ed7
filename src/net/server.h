// TCP prediction server: the network front-end that turns the in-process
// client library into the paper's datacenter service. It plugs RCNP framing
// into the shared epoll connection loop (conn_loop.h): N worker threads,
// accepted sockets spread round-robin, each connection owned by one worker
// for its lifetime (no cross-thread locking on the request path). Request
// handling calls straight into core::Client::PredictSingle/PredictMany on
// the worker that read the frame, so the batched ExecEngine path, result
// caches and degradation behavior of the in-process library all carry over
// unchanged.
//
// Robustness contract (pinned by tests/net/frame_fuzz_test.cc):
//  * every read/write/accept retries EINTR and handles short counts;
//  * a malformed frame (bad magic/version/opcode, truncated or inconsistent
//    body) is answered with a protocol-error response, not a disconnect —
//    the length prefix keeps the stream framed;
//  * only an announced payload length above kMaxFrameBytes forces a close
//    (the stream cannot be resynchronized without trusting the length), and
//    even then the error response is flushed first.
#ifndef RC_SRC_NET_SERVER_H_
#define RC_SRC_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/client.h"
#include "src/net/conn_loop.h"
#include "src/net/protocol.h"
#include "src/obs/metrics.h"

namespace rc::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port back via port()
  int num_workers = 4;
  // Registry receiving the rc_net_* instruments; null = private registry
  // (same convention as core::Client).
  rc::obs::MetricsRegistry* metrics = nullptr;
};

class Server : private ConnHandler {
 public:
  // The core client must be initialized and outlive the server.
  Server(rc::core::Client* client, ServerConfig config);
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and starts the worker threads. False on socket errors
  // (address in use, bad bind address, ...). Idempotent once started.
  bool Start();
  // Stops accepting, closes every connection, joins the workers. Safe to
  // call twice; called by the destructor.
  void Stop();

  // The bound port (valid after a successful Start()).
  uint16_t port() const { return loop_.port(); }

  rc::obs::MetricsRegistry& metrics() const { return *metrics_; }

  // Counters surfaced through the health opcode.
  HealthResponse Health() const;

 private:
  void OnRead(Conn& conn) override { ProcessFrames(conn); }
  // Records the net/write_frame span and finishes the wire trace server-side.
  void OnDrained(Conn& conn, uint64_t write_start_ns) override;
  // Parses and answers every complete frame buffered in conn.in.
  void ProcessFrames(Conn& conn);
  // Decodes and dispatches one frame payload, appending the response.
  void HandleFrame(Conn& conn, const uint8_t* payload, size_t size);

  rc::core::Client* client_;
  ServerConfig config_;

  std::unique_ptr<rc::obs::MetricsRegistry> owned_metrics_;
  rc::obs::MetricsRegistry* metrics_ = nullptr;
  struct Instruments {
    rc::obs::Counter* connections_accepted;
    rc::obs::Counter* rejected_fd_limit;
    rc::obs::Gauge* connections_active;
    rc::obs::Counter* requests;
    rc::obs::Counter* predictions;
    rc::obs::Counter* protocol_errors;
    rc::obs::Counter* bytes_read;
    rc::obs::Counter* bytes_written;
    rc::obs::Histogram* request_latency_us;
  } m_{};
  ConnLoop loop_;  // last: its workers use everything above
};

}  // namespace rc::net

#endif  // RC_SRC_NET_SERVER_H_
