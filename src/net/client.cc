#include "src/net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/clock.h"
#include "src/common/faults.h"
#include "src/net/conn_loop.h"  // EINTR-safe read/write wrappers
#include "src/obs/trace_context.h"

namespace rc::net {

namespace {

// Polls fd for `events` until ready or the deadline (absolute clock-µs)
// expires. Returns 1 when ready, 0 on timeout, -1 on poll error. EINTR
// re-evaluates the remaining budget and retries.
int PollDeadline(int fd, short events, rc::common::Clock* clock, int64_t deadline_us) {
  for (;;) {
    int64_t left_ms = (deadline_us - clock->NowUs()) / 1000;
    if (left_ms < 0) return 0;
    pollfd p{fd, events, 0};
    // +1 rounds the sub-millisecond remainder up so we never spin at 0ms.
    int r = ::poll(&p, 1, static_cast<int>(left_ms) + 1);
    if (r > 0) return 1;
    if (r == 0) return 0;
    if (errno != EINTR) return -1;
  }
}

}  // namespace

const char* ToString(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kTimeout: return "timeout";
    case Status::kConnectFailed: return "connect failed";
    case Status::kSendFailed: return "send failed";
    case Status::kRecvFailed: return "recv failed";
    case Status::kProtocolError: return "protocol error";
    case Status::kRemoteError: return "remote error";
  }
  return "unknown";
}

Client::Client(ClientConfig config) : config_(std::move(config)) {
  clock_ = config_.clock != nullptr ? config_.clock
                                    : rc::common::MonotonicClock::Instance();
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<rc::obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_.requests = &metrics_->GetCounter("rc_net_client_requests", {}, "round-trips attempted");
  m_.timeouts = &metrics_->GetCounter("rc_net_client_timeouts", {}, "deadline expiries");
  m_.reconnects = &metrics_->GetCounter("rc_net_client_reconnects", {}, "sockets (re)opened");
  m_.errors = &metrics_->GetCounter("rc_net_client_errors", {}, "failed round-trips");
  m_.request_latency_us = &metrics_->GetHistogram(
      "rc_net_client_request_latency_us", {}, "client-observed round-trip latency (us)");

  int pool = config_.pool_size > 0 ? config_.pool_size : 1;
  conns_.resize(static_cast<size_t>(pool));
  free_slots_.reserve(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) free_slots_.push_back(i);
}

Client::~Client() {
  for (Conn& conn : conns_) Disconnect(conn);
}

int64_t Client::DeadlineFor(int64_t deadline_us) const {
  int64_t us = deadline_us > 0 ? deadline_us : config_.default_deadline_us;
  return clock_->NowUs() + us;
}

Status Client::Acquire(int64_t deadline_us, size_t* slot) {
  std::unique_lock<std::mutex> lock(pool_mu_);
  if (!clock_->WaitUntil(lock, pool_cv_, deadline_us,
                         [this] { return !free_slots_.empty(); })) {
    return Status::kTimeout;
  }
  *slot = free_slots_.back();
  free_slots_.pop_back();
  return Status::kOk;
}

void Client::Release(size_t slot) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    free_slots_.push_back(slot);
  }
  pool_cv_.notify_one();
}

void Client::Disconnect(Conn& conn) {
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
}

Status Client::EnsureConnected(Conn& conn, int64_t deadline_us) {
  if (conn.fd >= 0) return Status::kOk;
  int64_t backoff_us = config_.reconnect_backoff_us;
  int attempts = config_.max_connect_attempts > 0 ? config_.max_connect_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (clock_->NowUs() >= deadline_us) return Status::kTimeout;
    if (attempt > 0) {
      // Doubling backoff, clamped so we never sleep past the deadline.
      int64_t nap_us = backoff_us;
      int64_t left_us = deadline_us - clock_->NowUs();
      if (nap_us > left_us) nap_us = left_us;
      if (nap_us > 0) clock_->SleepUs(nap_us);
      backoff_us *= 2;
    }
    if (rc::faults::InjectError("net/connect")) continue;  // simulated refusal

    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) continue;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return Status::kConnectFailed;  // bad host never resolves; do not retry
    }
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EINTR) {
      // EINTR leaves the connect in progress; fall through to the poll.
      rc = -1;
      errno = EINPROGRESS;
    }
    if (rc != 0 && errno == EINPROGRESS) {
      int ready = PollDeadline(fd, POLLOUT, clock_, deadline_us);
      if (ready <= 0) {
        ::close(fd);
        if (ready == 0) return Status::kTimeout;
        continue;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
        ::close(fd);
        continue;
      }
    } else if (rc != 0) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conn.fd = fd;
    m_.reconnects->Increment();
    return Status::kOk;
  }
  return Status::kConnectFailed;
}

Status Client::SendAll(Conn& conn, const std::vector<uint8_t>& bytes,
                       int64_t deadline_us) {
  if (rc::faults::InjectError("net/send")) return Status::kSendFailed;
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t w = WriteEintr(conn.fd, bytes.data() + off, bytes.size() - off);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      int ready = PollDeadline(conn.fd, POLLOUT, clock_, deadline_us);
      if (ready == 0) return Status::kTimeout;
      if (ready < 0) return Status::kSendFailed;
      continue;
    }
    return Status::kSendFailed;
  }
  return Status::kOk;
}

Status Client::RecvExact(Conn& conn, uint8_t* buf, size_t n, int64_t deadline_us) {
  size_t off = 0;
  while (off < n) {
    ssize_t r = ReadEintr(conn.fd, buf + off, n - off);
    if (r > 0) {
      off += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) return Status::kRecvFailed;  // peer closed mid-response
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      int ready = PollDeadline(conn.fd, POLLIN, clock_, deadline_us);
      if (ready == 0) return Status::kTimeout;
      if (ready < 0) return Status::kRecvFailed;
      continue;
    }
    return Status::kRecvFailed;
  }
  return Status::kOk;
}

Status Client::Call(Opcode opcode, uint64_t request_id, const std::vector<uint8_t>& frame,
                    std::vector<uint8_t>* payload, size_t* body_off, int64_t deadline_us) {
  uint64_t start_ns = rc::obs::NowNs();
  m_.requests->Increment();
  size_t slot;
  Status status = Acquire(deadline_us, &slot);
  if (status != Status::kOk) {
    m_.timeouts->Increment();
    return status;
  }
  Conn& conn = conns_[slot];

  status = EnsureConnected(conn, deadline_us);
  if (status == Status::kOk) status = SendAll(conn, frame, deadline_us);
  if (status == Status::kOk && rc::faults::InjectError("net/recv")) {
    status = Status::kRecvFailed;
  }
  uint32_t payload_len = 0;
  if (status == Status::kOk) {
    status = RecvExact(conn, reinterpret_cast<uint8_t*>(&payload_len), sizeof(payload_len),
                       deadline_us);
  }
  if (status == Status::kOk &&
      (payload_len < kHeaderBytesV1 || payload_len > kMaxFrameBytes)) {
    status = Status::kProtocolError;
  }
  if (status == Status::kOk) {
    payload->resize(payload_len);
    status = RecvExact(conn, payload->data(), payload_len, deadline_us);
  }
  if (status == Status::kOk) {
    rc::ml::ByteReader r(payload->data(), payload->size());
    FrameHeader header;
    if (DecodeHeader(r, &header) != WireStatus::kOk ||
        header.opcode != static_cast<uint16_t>(opcode) || header.request_id != request_id) {
      status = Status::kProtocolError;
    } else {
      // DecodeHeader consumed the (version-dependent) header; the body
      // starts wherever the reader stopped.
      *body_off = payload->size() - r.remaining();
    }
  }

  if (status != Status::kOk) {
    // The stream may hold a half-delivered response; never reuse it.
    Disconnect(conn);
    if (status == Status::kTimeout) {
      m_.timeouts->Increment();
    } else {
      m_.errors->Increment();
    }
  } else {
    m_.request_latency_us->Record(static_cast<double>(rc::obs::NowNs() - start_ns) / 1000.0);
  }
  Release(slot);
  return status;
}

Status Client::PredictSingle(const std::string& model, const core::ClientInputs& inputs,
                             core::Prediction* out, int64_t deadline_us) {
  int64_t deadline = DeadlineFor(deadline_us);
  uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  // The client is where traces are born: continue the caller's context if
  // one is current, otherwise roll the sampling dice for a new root. The
  // span's own id rides the frame so the server's spans parent under it.
  rc::obs::TraceContext root = rc::obs::CurrentTraceContext();
  if (!root.valid()) root = rc::obs::Tracer::Global().StartTrace();
  rc::obs::TraceSpan span("netclient/call", root);
  std::vector<uint8_t> frame;
  AppendPredictSingleRequest(frame, id, model, inputs, span.context());
  std::vector<uint8_t> payload;
  size_t body_off = 0;
  Status status = Call(Opcode::kPredictSingle, id, frame, &payload, &body_off, deadline);
  if (status != Status::kOk) return status;
  rc::ml::ByteReader r(payload.data() + body_off, payload.size() - body_off);
  WireStatus remote;
  std::string error;
  core::Prediction p;
  if (!DecodePredictSingleResponse(r, &remote, &p, &error)) {
    m_.errors->Increment();
    return Status::kProtocolError;
  }
  if (remote != WireStatus::kOk) {
    m_.errors->Increment();
    return Status::kRemoteError;
  }
  *out = p;
  return Status::kOk;
}

Status Client::PredictMany(const std::string& model, std::span<const core::ClientInputs> inputs,
                           std::vector<core::Prediction>* out, int64_t deadline_us) {
  int64_t deadline = DeadlineFor(deadline_us);
  uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  rc::obs::TraceContext root = rc::obs::CurrentTraceContext();
  if (!root.valid()) root = rc::obs::Tracer::Global().StartTrace();
  rc::obs::TraceSpan span("netclient/call", root);
  std::vector<uint8_t> frame;
  AppendPredictManyRequest(frame, id, model, inputs, span.context());
  std::vector<uint8_t> payload;
  size_t body_off = 0;
  Status status = Call(Opcode::kPredictMany, id, frame, &payload, &body_off, deadline);
  if (status != Status::kOk) return status;
  rc::ml::ByteReader r(payload.data() + body_off, payload.size() - body_off);
  WireStatus remote;
  std::string error;
  std::vector<core::Prediction> predictions;
  if (!DecodePredictManyResponse(r, kMaxBatch, &remote, &predictions, &error)) {
    m_.errors->Increment();
    return Status::kProtocolError;
  }
  if (remote != WireStatus::kOk) {
    m_.errors->Increment();
    return Status::kRemoteError;
  }
  *out = std::move(predictions);
  return Status::kOk;
}

Status Client::Health(HealthResponse* out, int64_t deadline_us) {
  int64_t deadline = DeadlineFor(deadline_us);
  uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint8_t> frame;
  AppendHealthRequest(frame, id);
  std::vector<uint8_t> payload;
  size_t body_off = 0;
  Status status = Call(Opcode::kHealth, id, frame, &payload, &body_off, deadline);
  if (status != Status::kOk) return status;
  rc::ml::ByteReader r(payload.data() + body_off, payload.size() - body_off);
  WireStatus remote;
  std::string error;
  HealthResponse health;
  if (!DecodeHealthResponse(r, &remote, &health, &error)) {
    m_.errors->Increment();
    return Status::kProtocolError;
  }
  if (remote != WireStatus::kOk) {
    m_.errors->Increment();
    return Status::kRemoteError;
  }
  *out = health;
  return Status::kOk;
}

}  // namespace rc::net
