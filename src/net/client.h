// Connection-pooled client for the RC prediction service — the process-side
// half of the paper's "client DLL" once the predictions live behind a
// network hop. A small pool of TCP connections is multiplexed across caller
// threads: each request leases one connection (blocking with the request's
// deadline if the pool is drained), writes one frame, and reads exactly one
// response frame, so there is no in-flight interleaving to reorder.
//
// Failure semantics:
//  * every call carries a deadline (per-request override or the config
//    default); deadline expiry returns kTimeout and closes the leased
//    connection, because a late response would desync the stream;
//  * a dead connection reconnects with doubling backoff (bounded attempts,
//    never sleeping past the caller's deadline);
//  * reconnects, sends, and receives pass through rc::faults sites
//    ("net/connect", "net/send", "net/recv") so outage behavior is testable
//    deterministically.
#ifndef RC_SRC_NET_CLIENT_H_
#define RC_SRC_NET_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/net/protocol.h"
#include "src/obs/metrics.h"

namespace rc::common {
class Clock;
}  // namespace rc::common

namespace rc::net {

enum class Status {
  kOk = 0,
  kTimeout,         // deadline expired (pool wait, connect, send, or recv)
  kConnectFailed,   // reconnect attempts exhausted
  kSendFailed,
  kRecvFailed,      // peer closed or read error mid-response
  kProtocolError,   // response frame failed to parse or ids mismatched
  kRemoteError,     // server answered with a non-kOk WireStatus
};
const char* ToString(Status status);

struct ClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Connections in the pool; also the maximum number of requests in flight.
  int pool_size = 4;
  // Default per-request deadline, pool wait included. Each call may override.
  int64_t default_deadline_us = 250'000;
  // Reconnect policy: up to max_connect_attempts, sleeping
  // reconnect_backoff_us * 2^attempt between tries (clamped to the deadline).
  int max_connect_attempts = 3;
  int64_t reconnect_backoff_us = 1'000;
  // Registry for the rc_net_client_* instruments; null = private registry.
  rc::obs::MetricsRegistry* metrics = nullptr;
  // Injected time source for deadlines, pool waits, and reconnect backoff.
  // Null uses MonotonicClock::Instance(); tests substitute a VirtualClock
  // (socket readiness itself still polls real time — only deadline math and
  // backoff naps are virtualized). Must outlive the client.
  rc::common::Clock* clock = nullptr;
};

class Client {
 public:
  explicit Client(ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // All calls are thread-safe. deadline_us == 0 uses the config default.
  // On non-kOk the output parameter is untouched.
  Status PredictSingle(const std::string& model, const core::ClientInputs& inputs,
                       core::Prediction* out, int64_t deadline_us = 0);
  Status PredictMany(const std::string& model, std::span<const core::ClientInputs> inputs,
                     std::vector<core::Prediction>* out, int64_t deadline_us = 0);
  Status Health(HealthResponse* out, int64_t deadline_us = 0);

  rc::obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct Conn {
    int fd = -1;
  };

  // Deadlines below are absolute microseconds on the injected clock's scale
  // (clock_->NowUs() + budget).
  // Leases a pool slot, blocking until one frees or the deadline expires.
  Status Acquire(int64_t deadline_us, size_t* slot);
  void Release(size_t slot);
  // Connects the slot's socket if needed (backoff through "net/connect").
  Status EnsureConnected(Conn& conn, int64_t deadline_us);
  void Disconnect(Conn& conn);

  // One full round-trip: lease, connect, send `frame`, receive the matching
  // response, fill `payload` with the response frame (header already
  // validated against `request_id` and `opcode`). `body_off` receives the
  // offset of the opcode body inside `payload` — v2 headers are variable
  // length (optional trace block), so callers must not assume kHeaderBytes.
  Status Call(Opcode opcode, uint64_t request_id, const std::vector<uint8_t>& frame,
              std::vector<uint8_t>* payload, size_t* body_off, int64_t deadline_us);

  Status SendAll(Conn& conn, const std::vector<uint8_t>& bytes, int64_t deadline_us);
  // Reads exactly n bytes into buf, polling against the deadline.
  Status RecvExact(Conn& conn, uint8_t* buf, size_t n, int64_t deadline_us);

  int64_t DeadlineFor(int64_t deadline_us) const;

  ClientConfig config_;
  rc::common::Clock* clock_;
  std::vector<Conn> conns_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::vector<size_t> free_slots_;
  std::atomic<uint64_t> next_request_id_{1};

  std::unique_ptr<rc::obs::MetricsRegistry> owned_metrics_;
  rc::obs::MetricsRegistry* metrics_ = nullptr;
  struct Instruments {
    rc::obs::Counter* requests;
    rc::obs::Counter* timeouts;
    rc::obs::Counter* reconnects;
    rc::obs::Counter* errors;  // non-kOk, non-timeout outcomes
    rc::obs::Histogram* request_latency_us;
  } m_{};
};

}  // namespace rc::net

#endif  // RC_SRC_NET_CLIENT_H_
