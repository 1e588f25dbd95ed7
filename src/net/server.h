// TCP prediction server: the network front-end that turns the in-process
// client library into the paper's datacenter service. N worker threads each
// run a non-blocking epoll loop; the listening socket is registered in every
// worker's epoll set with EPOLLEXCLUSIVE, so the kernel wakes one worker per
// pending accept. Accepted sockets are spread round-robin across workers
// (the accepting worker hands remote ones over through a pending queue +
// eventfd nudge), and the adopting worker owns the connection for its
// lifetime (per-connection state is worker-local — no cross-thread locking
// on the request path). Request handling calls straight into
// core::Client::PredictSingle/PredictMany, so the batched ExecEngine path,
// result caches, degradation behavior, and cross-request batching of the
// in-process library all carry over unchanged: coalescing concurrent
// kPredictSingle frames is the client's job (ClientConfig::combiner), not
// the server's.
//
// Robustness contract (pinned by tests/net/frame_fuzz_test.cc):
//  * every read/write/accept retries EINTR and handles short counts;
//  * a malformed frame (bad magic/version/opcode, truncated or inconsistent
//    body) is answered with a protocol-error response, not a disconnect —
//    the length prefix keeps the stream framed;
//  * only an announced payload length above max_frame_bytes forces a close
//    (the stream cannot be resynchronized without trusting the length), and
//    even then the error response is flushed first.
#ifndef RC_SRC_NET_SERVER_H_
#define RC_SRC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/client.h"
#include "src/net/protocol.h"
#include "src/obs/metrics.h"

namespace rc::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port back via port()
  int num_workers = 4;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  size_t max_batch = kMaxBatch;
  // Registry receiving the rc_net_* instruments; null = private registry
  // (same convention as core::Client).
  rc::obs::MetricsRegistry* metrics = nullptr;
};

// Accept-side guard for the descriptor limit. When accept() fails with
// EMFILE/ENFILE the pending connection stays queued and the listener stays
// readable, so a plain retry spins without serving anyone. This holds one
// spare descriptor: Shed() frees it, accepts the pending connection, closes
// it at once and takes the spare back. Shared by the RCNP and admin
// listeners; thread-safe, since every RCNP worker runs the accept loop.
class FdReserve {
 public:
  FdReserve();
  ~FdReserve();

  FdReserve(const FdReserve&) = delete;
  FdReserve& operator=(const FdReserve&) = delete;

  // Accepts and closes one pending connection on `listen_fd`. True if one
  // was shed; false if none was pending or no spare could be taken back
  // (the caller should then return to its event loop).
  bool Shed(int listen_fd);

 private:
  std::mutex mu_;
  int spare_fd_ = -1;
};

class Server {
 public:
  // The core client must be initialized and outlive the server.
  Server(rc::core::Client* client, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and starts the worker threads. False on socket errors
  // (address in use, bad bind address, ...). Idempotent once started.
  bool Start();
  // Stops accepting, closes every connection, joins the workers. Safe to
  // call twice; called by the destructor.
  void Stop();

  // The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  rc::obs::MetricsRegistry& metrics() const { return *metrics_; }

  // Counters surfaced through the health opcode.
  HealthResponse Health() const;

 private:
  struct Connection {
    int fd = -1;
    std::vector<uint8_t> in;    // unparsed request bytes
    std::vector<uint8_t> out;   // unsent response bytes
    size_t out_off = 0;         // sent prefix of `out`
    bool want_close = false;    // close after `out` drains
    bool epollout_armed = false;
    // Timing of the socket-read burst that produced the buffered frames; the
    // synthetic net/read_frame span is recorded per frame once the frame's
    // trace context is known (the read happens before the header is parsed).
    uint64_t read_start_ns = 0;
    uint64_t read_dur_ns = 0;
    // Wire trace awaiting its net/write_frame span + server-side finish once
    // the response drains. Only the newest traced frame per flush is tracked;
    // earlier ones in the same burst finish without a write span.
    rc::obs::TraceContext pending_trace;
    uint64_t pending_trace_start_ns = 0;
  };

  struct Worker {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd; written by Stop() and connection handoff
    std::thread thread;
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
    // Accepted sockets handed to this worker by another worker's accept loop,
    // awaiting registration in this worker's epoll set (see AcceptReady).
    std::mutex pending_mu;
    std::vector<int> pending_fds;
  };

  void WorkerLoop(Worker& worker);
  void AcceptReady(Worker& worker);
  // Registers an accepted socket with `worker`'s epoll set and conns map.
  void AdoptConnection(Worker& worker, int fd);
  // False when the connection was closed and erased.
  bool ReadReady(Worker& worker, Connection& conn);
  bool WriteReady(Worker& worker, Connection& conn);
  // Parses and answers every complete frame buffered in conn.in.
  void ProcessFrames(Connection& conn);
  // Decodes and dispatches one frame payload, appending the response.
  void HandleFrame(Connection& conn, const uint8_t* payload, size_t size);
  void CloseConnection(Worker& worker, int fd);
  bool UpdateEpollOut(Worker& worker, Connection& conn, bool want);

  rc::core::Client* client_;
  ServerConfig config_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Round-robin cursor for spreading accepted connections across workers.
  std::atomic<uint64_t> next_worker_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

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
  std::atomic<uint64_t> active_connections_{0};
  FdReserve fd_reserve_;
};

// --- EINTR-safe syscall wrappers (shared with the pooled client) ---
// Retry the call while it fails with EINTR; other errors pass through.
// Short counts are the caller's concern (both sides loop until EAGAIN or
// their buffer is drained).
ssize_t ReadEintr(int fd, void* buf, size_t n);
ssize_t WriteEintr(int fd, const void* buf, size_t n);
int AcceptEintr(int fd);  // accept4(SOCK_NONBLOCK | SOCK_CLOEXEC)

}  // namespace rc::net

#endif  // RC_SRC_NET_SERVER_H_
