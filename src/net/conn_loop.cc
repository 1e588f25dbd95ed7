#include "src/net/conn_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace rc::net {

namespace {

// One epoll_wait round drains at most this many events per worker.
constexpr int kMaxEpollEvents = 64;

int OpenSpareFd() { return ::open("/dev/null", O_RDONLY | O_CLOEXEC); }

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

FdReserve::FdReserve() : spare_fd_(OpenSpareFd()) {}

FdReserve::~FdReserve() {
  if (spare_fd_ >= 0) ::close(spare_fd_);
}

bool FdReserve::Shed(int listen_fd, rc::obs::Counter& shed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spare_fd_ < 0) spare_fd_ = OpenSpareFd();  // a descriptor freed up since
  if (spare_fd_ < 0) return false;
  ::close(spare_fd_);
  const int fd = AcceptEintr(listen_fd);
  if (fd >= 0) {
    shed.Increment();
    ::close(fd);
  }
  spare_fd_ = OpenSpareFd();
  return fd >= 0;
}

ConnLoop::~ConnLoop() { Stop(); }

bool ConnLoop::Start(ConnHandler& handler, ConnLoopOptions options) {
  if (running_.load(std::memory_order_acquire)) return true;
  handler_ = &handler;
  options_ = std::move(options);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  const int workers = options_.num_workers > 0 ? options_.num_workers : 1;
  for (int i = 0; i < workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    worker->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    // Push first so Stop() below closes whichever of the two was opened.
    workers_.push_back(std::move(worker));
    Worker& w = *workers_.back();
    if (w.epoll_fd < 0 || w.wake_fd < 0) {
      Stop();
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w.wake_fd;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, w.wake_fd, &ev);
    // EPOLLEXCLUSIVE: the kernel wakes one worker per pending accept instead
    // of thundering every epoll set registered on the listener.
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(*w); });
  }
  return true;
}

void ConnLoop::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
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
    }
  }
  // Also reached when Start() failed part-way through its set-up.
  for (auto& worker : workers_) {
    if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
    if (worker->wake_fd >= 0) ::close(worker->wake_fd);
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ConnLoop::WorkerLoop(Worker& worker) {
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
      Conn& conn = *it->second;
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

void ConnLoop::AcceptReady(Worker& worker) {
  // EPOLLEXCLUSIVE wakes one worker per readiness edge, but this loop drains
  // the whole backlog — a burst of simultaneous connects would otherwise all
  // land on the worker that happened to wake first. Since a worker handles
  // its connections' requests serially, piling every connection onto one
  // worker serializes the load.
  // Round-robin each accepted socket across workers instead: remote ones go
  // through the target's pending queue and are registered by the target
  // itself (epoll sets and conns maps stay worker-local).
  for (;;) {
    int fd = AcceptEintr(listen_fd_);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Shed the pending connection rather than retry in place: retrying
        // spins on it and starves this worker's own connections.
        if (!fd_reserve_.Shed(listen_fd_, *options_.rejected_fd_limit)) return;
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

void ConnLoop::AdoptConnection(Worker& worker, int fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  worker.conns.emplace(fd, std::move(conn));
  if (options_.connections_accepted != nullptr) options_.connections_accepted->Increment();
  active_connections_.fetch_add(1, std::memory_order_relaxed);
  SetActiveGauge();
}

bool ConnLoop::ReadReady(Worker& worker, Conn& conn) {
  // Timed by hand: an RCNP handler records this burst retroactively as the
  // net/read_frame span of each frame it delivered (see Server::HandleFrame).
  conn.read_start_ns = rc::obs::NowNs();
  const size_t chunk = options_.read_chunk;
  for (;;) {
    size_t old = conn.in.size();
    conn.in.resize(old + chunk);
    ssize_t r = ReadEintr(conn.fd, conn.in.data() + old, chunk);
    if (r > 0) {
      conn.in.resize(old + static_cast<size_t>(r));
      if (options_.bytes_read != nullptr) {
        options_.bytes_read->Increment(static_cast<uint64_t>(r));
      }
      if (static_cast<size_t>(r) < chunk) break;  // drained the socket
      if (conn.in.size() > options_.read_limit) break;  // let the handler judge
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
  if (conn.close_after_flush) {
    conn.in.clear();  // the last reply is queued; nothing more is answered
  } else {
    handler_->OnRead(conn);
  }
  return WriteReady(worker, conn);
}

bool ConnLoop::WriteReady(Worker& worker, Conn& conn) {
  const bool had_output = conn.out_off < conn.out.size();
  const uint64_t write_start_ns = had_output ? rc::obs::NowNs() : 0;
  while (conn.out_off < conn.out.size()) {
    ssize_t w =
        WriteEintr(conn.fd, conn.out.data() + conn.out_off, conn.out.size() - conn.out_off);
    if (w > 0) {
      conn.out_off += static_cast<size_t>(w);
      if (options_.bytes_written != nullptr) {
        options_.bytes_written->Increment(static_cast<uint64_t>(w));
      }
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
  if (had_output) handler_->OnDrained(conn, write_start_ns);
  if (conn.close_after_flush) {
    CloseConnection(worker, conn.fd);
    return false;
  }
  return UpdateEpollOut(worker, conn, false);
}

bool ConnLoop::UpdateEpollOut(Worker& worker, Conn& conn, bool want) {
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

void ConnLoop::CloseConnection(Worker& worker, int fd) {
  auto it = worker.conns.find(fd);
  if (it == worker.conns.end()) return;
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  worker.conns.erase(it);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  SetActiveGauge();
}

void ConnLoop::SetActiveGauge() {
  if (options_.connections_active == nullptr) return;
  options_.connections_active->Set(
      static_cast<double>(active_connections_.load(std::memory_order_relaxed)));
}

}  // namespace rc::net
