#include "src/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/faults.h"
#include "src/obs/trace_context.h"

namespace rc::net {

namespace {

// One epoll_wait round drains at most this many events per worker.
constexpr int kMaxEpollEvents = 64;
constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

ssize_t ReadEintr(int fd, void* buf, size_t n) {
  for (;;) {
    ssize_t r = ::read(fd, buf, n);
    if (r >= 0 || errno != EINTR) return r;
  }
}

ssize_t WriteEintr(int fd, const void* buf, size_t n) {
  for (;;) {
    ssize_t r = ::write(fd, buf, n);
    if (r >= 0 || errno != EINTR) return r;
  }
}

int AcceptEintr(int fd) {
  for (;;) {
    int c = ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (c >= 0 || errno != EINTR) return c;
  }
}

namespace {

int OpenSpareFd() { return ::open("/dev/null", O_RDONLY | O_CLOEXEC); }

}  // namespace

FdReserve::FdReserve() : spare_fd_(OpenSpareFd()) {}

FdReserve::~FdReserve() {
  if (spare_fd_ >= 0) ::close(spare_fd_);
}

bool FdReserve::Shed(int listen_fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spare_fd_ < 0) spare_fd_ = OpenSpareFd();  // a descriptor freed up since
  if (spare_fd_ < 0) return false;
  ::close(spare_fd_);
  const int fd = AcceptEintr(listen_fd);
  if (fd >= 0) ::close(fd);
  spare_fd_ = OpenSpareFd();
  return fd >= 0;
}

Server::Server(rc::core::Client* client, ServerConfig config)
    : client_(client), config_(std::move(config)) {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<rc::obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_.connections_accepted = &metrics_->GetCounter(
      "rc_net_connections_accepted", {}, "TCP connections accepted");
  m_.rejected_fd_limit = &metrics_->GetCounter(
      "rc_net_conn_rejected", {{"reason", "fd_limit"}},
      "connections accepted and closed at once because the process was at its "
      "descriptor limit");
  m_.connections_active =
      &metrics_->GetGauge("rc_net_connections_active", {}, "open TCP connections");
  m_.requests = &metrics_->GetCounter("rc_net_requests", {}, "frames answered");
  m_.predictions =
      &metrics_->GetCounter("rc_net_predictions", {}, "predictions served over the wire");
  m_.protocol_errors = &metrics_->GetCounter(
      "rc_net_protocol_errors", {}, "malformed frames answered with an error response");
  m_.bytes_read = &metrics_->GetCounter("rc_net_bytes_read", {}, "request bytes read");
  m_.bytes_written =
      &metrics_->GetCounter("rc_net_bytes_written", {}, "response bytes written");
  m_.request_latency_us = &metrics_->GetHistogram(
      "rc_net_request_latency_us", {}, {}, "server-side frame handle latency (us)");
}

Server::~Server() { Stop(); }

bool Server::Start() {
  if (running_.load(std::memory_order_acquire)) return true;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 512) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  int workers = config_.num_workers > 0 ? config_.num_workers : 1;
  for (int i = 0; i < workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    worker->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (worker->epoll_fd < 0 || worker->wake_fd < 0) {
      Stop();
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake_fd;
    ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev);
    // EPOLLEXCLUSIVE: the kernel wakes one worker per pending accept instead
    // of thundering every epoll set registered on the listener.
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
    workers_.push_back(std::move(worker));
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(*w); });
  }
  return true;
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Start() may have half-initialized workers before failing.
    for (auto& worker : workers_) {
      if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
      if (worker->wake_fd >= 0) ::close(worker->wake_fd);
    }
    workers_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  stopping_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    uint64_t one = 1;
    (void)WriteEintr(worker->wake_fd, &one, sizeof(one));
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    // A handoff racing with shutdown can land after the target drained its
    // pending queue; all workers are joined now, so sweep without racing.
    for (int fd : worker->pending_fds) ::close(fd);
    worker->pending_fds.clear();
    if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
    if (worker->wake_fd >= 0) ::close(worker->wake_fd);
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

HealthResponse Server::Health() const {
  HealthResponse h;
  h.requests = m_.requests->Value();
  h.predictions = m_.predictions->Value();
  h.protocol_errors = m_.protocol_errors->Value();
  h.active_connections = active_connections_.load(std::memory_order_relaxed);
  h.num_models = static_cast<uint32_t>(client_->GetAvailableModels().size());
  return h;
}

void Server::WorkerLoop(Worker& worker) {
  epoll_event events[kMaxEpollEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(worker.epoll_fd, events, kMaxEpollEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t mask = events[i].events;
      if (fd == worker.wake_fd) {
        uint64_t drain;
        (void)ReadEintr(worker.wake_fd, &drain, sizeof(drain));
        // Adopt connections handed over by another worker's accept loop.
        std::vector<int> adopted;
        {
          std::lock_guard<std::mutex> lock(worker.pending_mu);
          adopted.swap(worker.pending_fds);
        }
        for (int pending_fd : adopted) AdoptConnection(worker, pending_fd);
        continue;  // loop condition re-checks stopping_
      }
      if (fd == listen_fd_) {
        AcceptReady(worker);
        continue;
      }
      auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) continue;  // closed earlier this round
      Connection& conn = *it->second;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(worker, fd);
        continue;
      }
      if ((mask & EPOLLIN) != 0 && !ReadReady(worker, conn)) continue;
      if ((mask & EPOLLOUT) != 0) WriteReady(worker, conn);
    }
  }
  // Drain: close every connection this worker owns, plus any handed-over
  // sockets never adopted (Stop() sweeps handoffs that race with shutdown).
  std::vector<int> fds;
  fds.reserve(worker.conns.size());
  for (const auto& [fd, conn] : worker.conns) fds.push_back(fd);
  for (int fd : fds) CloseConnection(worker, fd);
  std::lock_guard<std::mutex> lock(worker.pending_mu);
  for (int fd : worker.pending_fds) ::close(fd);
  worker.pending_fds.clear();
}

void Server::AcceptReady(Worker& worker) {
  // EPOLLEXCLUSIVE wakes one worker per readiness edge, but this loop drains
  // the whole backlog — a burst of simultaneous connects would otherwise all
  // land on the worker that happened to wake first. Since a worker handles
  // its connections' frames serially (and may park in the client's combiner),
  // piling every connection onto one worker both serializes the load and
  // starves the combiner of concurrent arrivals. Round-robin each accepted
  // socket across workers instead: remote ones go through the target's
  // pending queue and are registered by the target itself (epoll sets and
  // conns maps stay worker-local).
  for (;;) {
    int fd = AcceptEintr(listen_fd_);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Shed the pending connection rather than retry in place: retrying
        // spins on it and starves this worker's own connections.
        if (!fd_reserve_.Shed(listen_fd_)) return;
        m_.rejected_fd_limit->Increment();
        continue;
      }
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    size_t target_idx = static_cast<size_t>(
        next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size());
    Worker& target = *workers_[target_idx];
    if (&target == &worker) {
      AdoptConnection(worker, fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(target.pending_mu);
      target.pending_fds.push_back(fd);
    }
    uint64_t nudge = 1;
    (void)WriteEintr(target.wake_fd, &nudge, sizeof(nudge));
  }
}

void Server::AdoptConnection(Worker& worker, int fd) {
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  worker.conns.emplace(fd, std::move(conn));
  m_.connections_accepted->Increment();
  active_connections_.fetch_add(1, std::memory_order_relaxed);
  m_.connections_active->Set(
      static_cast<double>(active_connections_.load(std::memory_order_relaxed)));
}

bool Server::ReadReady(Worker& worker, Connection& conn) {
  // Timed manually, not with a TraceSpan: the trace context arrives inside
  // the frames this read produces, so the span is recorded retroactively per
  // frame in HandleFrame (RecordSpanUnder) once the header is decoded.
  conn.read_start_ns = rc::obs::NowNs();
  for (;;) {
    size_t old = conn.in.size();
    conn.in.resize(old + kReadChunk);
    ssize_t r = ReadEintr(conn.fd, conn.in.data() + old, kReadChunk);
    if (r > 0) {
      conn.in.resize(old + static_cast<size_t>(r));
      m_.bytes_read->Increment(static_cast<uint64_t>(r));
      if (static_cast<size_t>(r) < kReadChunk) break;  // drained the socket
      continue;
    }
    conn.in.resize(old);
    if (r == 0) {  // peer closed; answer nothing further
      CloseConnection(worker, conn.fd);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(worker, conn.fd);
    return false;
  }
  conn.read_dur_ns = rc::obs::NowNs() - conn.read_start_ns;
  ProcessFrames(conn);
  if (!WriteReady(worker, conn)) return false;
  return true;
}

void Server::ProcessFrames(Connection& conn) {
  size_t off = 0;
  while (!conn.want_close && conn.in.size() - off >= kLengthPrefixBytes) {
    uint32_t payload_len;
    std::memcpy(&payload_len, conn.in.data() + off, sizeof(payload_len));
    if (payload_len > config_.max_frame_bytes) {
      // The length cannot be trusted, so the stream cannot be resynchronized:
      // answer the protocol error, then close once it is flushed.
      m_.protocol_errors->Increment();
      m_.requests->Increment();
      AppendErrorResponse(conn.out, Opcode::kPredictSingle, 0, WireStatus::kFrameTooLarge,
                          ToString(WireStatus::kFrameTooLarge));
      conn.want_close = true;
      break;
    }
    if (conn.in.size() - off < kLengthPrefixBytes + payload_len) break;  // partial frame
    HandleFrame(conn, conn.in.data() + off + kLengthPrefixBytes, payload_len);
    off += kLengthPrefixBytes + payload_len;
  }
  if (off > 0) conn.in.erase(conn.in.begin(), conn.in.begin() + static_cast<ptrdiff_t>(off));
}

void Server::HandleFrame(Connection& conn, const uint8_t* payload, size_t size) {
  uint64_t start_ns = rc::obs::NowNs();
  m_.requests->Increment();
  rc::ml::ByteReader r(payload, size);
  FrameHeader header;
  WireStatus status = DecodeHeader(r, &header);
  // Echo the opcode when the header parsed far enough to carry one, and the
  // request's version so v1 peers can parse their replies (a garbage version
  // is answered in v2 — that peer already failed the handshake).
  Opcode opcode = static_cast<Opcode>(header.opcode);
  const uint16_t wire_version =
      header.version == kProtocolVersionV1 ? kProtocolVersionV1 : kProtocolVersion;
  if (status != WireStatus::kOk) {
    m_.protocol_errors->Increment();
    AppendErrorResponse(conn.out, opcode, header.request_id, status, ToString(status),
                        wire_version);
    return;
  }

  // Adopt the propagated trace for this frame: spans below (net/predict, the
  // combiner, the client) parent into the caller's tree. The socket read that
  // delivered the frame is recorded retroactively as a sibling span, and the
  // response write + server-side finish happen when the reply drains.
  rc::obs::ScopedTraceContext trace_scope(header.trace);
  if (header.trace.valid()) {
    rc::obs::RecordSpanUnder("net/read_frame", header.trace, conn.read_start_ns,
                             conn.read_dur_ns);
    conn.pending_trace = header.trace;
    conn.pending_trace_start_ns = conn.read_start_ns;
  }

  // Deterministic fault site for tests: injected latency delays the response
  // past a client deadline; an injected error exercises the kInternal path.
  rc::faults::InjectLatency("net/handle");
  if (rc::faults::InjectError("net/handle")) {
    AppendErrorResponse(conn.out, opcode, header.request_id, WireStatus::kInternal,
                        "injected fault", wire_version);
    return;
  }

  rc::obs::TraceSpan span("net/predict");
  switch (opcode) {
    case Opcode::kPredictSingle: {
      PredictSingleRequest req;
      status = DecodePredictSingleRequest(r, &req);
      if (status != WireStatus::kOk) break;
      const core::Prediction p = client_->PredictSingle(req.model, req.inputs);
      m_.predictions->Increment();
      AppendPredictSingleResponse(conn.out, header.request_id, p, wire_version);
      m_.request_latency_us->Record(static_cast<double>(rc::obs::NowNs() - start_ns) / 1000.0);
      return;
    }
    case Opcode::kPredictMany: {
      PredictManyRequest req;
      status = DecodePredictManyRequest(r, config_.max_batch, &req);
      if (status != WireStatus::kOk) break;
      std::vector<core::Prediction> predictions = client_->PredictMany(req.model, req.inputs);
      m_.predictions->Increment(predictions.size());
      AppendPredictManyResponse(conn.out, header.request_id, predictions, wire_version);
      m_.request_latency_us->Record(static_cast<double>(rc::obs::NowNs() - start_ns) / 1000.0);
      return;
    }
    case Opcode::kHealth: {
      if (r.remaining() != 0) {
        status = WireStatus::kMalformed;
        break;
      }
      AppendHealthResponse(conn.out, header.request_id, Health(), wire_version);
      m_.request_latency_us->Record(static_cast<double>(rc::obs::NowNs() - start_ns) / 1000.0);
      return;
    }
  }
  m_.protocol_errors->Increment();
  AppendErrorResponse(conn.out, opcode, header.request_id, status, ToString(status),
                      wire_version);
}

bool Server::WriteReady(Worker& worker, Connection& conn) {
  const bool had_output = conn.out_off < conn.out.size();
  const uint64_t write_start_ns = had_output ? rc::obs::NowNs() : 0;
  while (conn.out_off < conn.out.size()) {
    ssize_t w =
        WriteEintr(conn.fd, conn.out.data() + conn.out_off, conn.out.size() - conn.out_off);
    if (w > 0) {
      conn.out_off += static_cast<size_t>(w);
      m_.bytes_written->Increment(static_cast<uint64_t>(w));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return UpdateEpollOut(worker, conn, true);
    }
    CloseConnection(worker, conn.fd);  // EPIPE/ECONNRESET/...
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (had_output && conn.pending_trace.valid()) {
    // The response left the socket: record the write span into the caller's
    // tree and finish the trace server-side — for traces rooted in a remote
    // process nothing else would, and for loopback roots FinishTrace is
    // idempotent (first caller classifies; late spans still attach).
    const uint64_t now_ns = rc::obs::NowNs();
    rc::obs::RecordSpanUnder("net/write_frame", conn.pending_trace, write_start_ns,
                             now_ns - write_start_ns);
    rc::obs::TraceStore::Global().FinishTrace(conn.pending_trace.trace_id,
                                              now_ns - conn.pending_trace_start_ns);
    conn.pending_trace = rc::obs::TraceContext{};
  }
  if (conn.want_close) {
    CloseConnection(worker, conn.fd);
    return false;
  }
  return UpdateEpollOut(worker, conn, false);
}

bool Server::UpdateEpollOut(Worker& worker, Connection& conn, bool want) {
  if (conn.epollout_armed == want) return true;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
    CloseConnection(worker, conn.fd);
    return false;
  }
  conn.epollout_armed = want;
  return true;
}

void Server::CloseConnection(Worker& worker, int fd) {
  auto it = worker.conns.find(fd);
  if (it == worker.conns.end()) return;
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  worker.conns.erase(it);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  m_.connections_active->Set(
      static_cast<double>(active_connections_.load(std::memory_order_relaxed)));
}

}  // namespace rc::net
