// The epoll connection loop behind both TCP endpoints: the RCNP prediction
// server (server.h) and the HTTP admin endpoint (admin_server.h). It owns
// everything about serving a listener that is not the protocol:
//
//  * the listening socket, bound and listening with the owner's backlog;
//  * N worker threads, each with its own epoll set and wake eventfd. The
//    listener sits in every set with EPOLLEXCLUSIVE, so the kernel wakes one
//    worker per pending accept; accepted sockets are spread round-robin, a
//    remote worker adopting its socket from a pending queue after an eventfd
//    nudge. Epoll sets and connection maps stay worker-local, so the request
//    path takes no lock;
//  * shedding at the descriptor limit (FdReserve), counted in
//    rc_net_conn_rejected{reason="fd_limit"};
//  * TCP_NODELAY, EINTR-safe reads into Conn::in, and flushes of Conn::out
//    that arm EPOLLOUT while the peer is slow and disarm it once drained;
//  * closing after the last reply is flushed, and a Stop() that is
//    idempotent and allows a restart.
//
// The protocol plugs in as a ConnHandler, called on the worker that owns the
// connection after each read burst and whenever Conn::out drains.
#ifndef RC_SRC_NET_CONN_LOOP_H_
#define RC_SRC_NET_CONN_LOOP_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace_context.h"

namespace rc::net {

// --- EINTR-safe syscall wrappers (shared with the pooled client) ---
// Retry the call while it fails with EINTR; other errors pass through.
// Short counts are the caller's concern (both sides loop until EAGAIN or
// their buffer is drained).
ssize_t ReadEintr(int fd, void* buf, size_t n);
ssize_t WriteEintr(int fd, const void* buf, size_t n);
int AcceptEintr(int fd);  // accept4(SOCK_NONBLOCK | SOCK_CLOEXEC)

// Accept-side guard for the descriptor limit. When accept() fails with
// EMFILE/ENFILE the pending connection stays queued and the listener stays
// readable, so a plain retry spins without serving anyone. This holds one
// spare descriptor: Shed() frees it, accepts the pending connection, counts
// it, closes it at once and takes the spare back. Thread-safe, since every
// worker of a ConnLoop runs the accept loop.
class FdReserve {
 public:
  FdReserve();
  ~FdReserve();

  FdReserve(const FdReserve&) = delete;
  FdReserve& operator=(const FdReserve&) = delete;

  // Accepts and closes one pending connection on `listen_fd`, incrementing
  // `shed` before the close, so a peer that sees its EOF also sees the
  // count. True if one was shed; false if none was pending or no spare
  // could be taken back (the caller should then return to its event loop).
  bool Shed(int listen_fd, rc::obs::Counter& shed);

 private:
  std::mutex mu_;
  int spare_fd_ = -1;
};

// One connection's state, owned by the worker that adopted it.
struct Conn {
  int fd = -1;
  std::vector<uint8_t> in;   // bytes read, not yet consumed by the handler
  std::vector<uint8_t> out;  // reply bytes queued for the peer
  size_t out_off = 0;        // sent prefix of `out`
  // Close once `out` drains; input arriving meanwhile is discarded.
  bool close_after_flush = false;
  bool epollout_armed = false;
  // The read burst that last appended to `in`: its start and duration.
  uint64_t read_start_ns = 0;
  uint64_t read_dur_ns = 0;
  // RCNP wire trace awaiting its net/write_frame span once `out` drains.
  rc::obs::TraceContext pending_trace;
  uint64_t pending_trace_start_ns = 0;
};

// The protocol side of a ConnLoop. Both calls run on the connection's worker.
class ConnHandler {
 public:
  virtual ~ConnHandler() = default;
  // A read burst appended to conn.in (never called once close_after_flush
  // is set). Consume complete requests, append replies to conn.out, and set
  // conn.close_after_flush to end the connection once they are sent.
  virtual void OnRead(Conn& conn) = 0;
  // conn.out drained; the flush that emptied it began at `write_start_ns`.
  virtual void OnDrained(Conn& /*conn*/, uint64_t /*write_start_ns*/) {}
};

// How an owner runs its loop. backlog, read_chunk and read_limit are fixed
// by each owner, not user configuration.
struct ConnLoopOptions {
  std::string bind_address;
  uint16_t port = 0;  // 0 = ephemeral; read the bound port back via port()
  int num_workers = 1;
  int backlog = 0;
  size_t read_chunk = 0;
  // A read burst stops once conn.in holds more than this, so between two
  // OnRead calls a peer can grow it at most one chunk past the limit.
  size_t read_limit = std::numeric_limits<size_t>::max();
  rc::obs::Counter* rejected_fd_limit = nullptr;  // required
  // Optional (null = not counted).
  rc::obs::Counter* connections_accepted = nullptr;
  rc::obs::Gauge* connections_active = nullptr;
  rc::obs::Counter* bytes_read = nullptr;
  rc::obs::Counter* bytes_written = nullptr;
};

class ConnLoop {
 public:
  ConnLoop() = default;
  ~ConnLoop();

  ConnLoop(const ConnLoop&) = delete;
  ConnLoop& operator=(const ConnLoop&) = delete;

  // Binds, listens, and starts the workers, which call `handler` until
  // Stop(). False on socket errors (address in use, bad bind address, ...).
  // Returns true at once if already running.
  bool Start(ConnHandler& handler, ConnLoopOptions options);
  // Stops accepting, closes every connection, joins the workers. Safe to
  // call twice; a later Start() serves again.
  void Stop();

  // The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }
  uint64_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd; written by Stop() and connection handoff
    std::thread thread;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
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
  bool ReadReady(Worker& worker, Conn& conn);
  bool WriteReady(Worker& worker, Conn& conn);
  bool UpdateEpollOut(Worker& worker, Conn& conn, bool want);
  void CloseConnection(Worker& worker, int fd);
  void SetActiveGauge();

  ConnHandler* handler_ = nullptr;
  ConnLoopOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Round-robin cursor for spreading accepted connections across workers.
  std::atomic<uint64_t> next_worker_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> active_connections_{0};
  FdReserve fd_reserve_;
};

}  // namespace rc::net

#endif  // RC_SRC_NET_CONN_LOOP_H_
