#include "src/net/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>

namespace rc::net {

namespace {

constexpr int kMaxEpollEvents = 32;
constexpr size_t kReadChunk = 4096;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 414: return "URI Too Long";
    case 503: return "Service Unavailable";
  }
  return "Internal Server Error";
}

// Finds the end of the request header block: CRLFCRLF per the RFC, bare
// LFLF tolerated (curl and netcat both emit CRLF, but a lenient parser
// keeps hand-typed probes working). Returns npos while incomplete.
size_t HeaderEnd(const std::vector<uint8_t>& in) {
  const char* data = reinterpret_cast<const char*>(in.data());
  std::string_view sv(data, in.size());
  size_t crlf = sv.find("\r\n\r\n");
  size_t lflf = sv.find("\n\n");
  if (crlf == std::string_view::npos) return lflf;
  if (lflf == std::string_view::npos) return crlf;
  return std::min(crlf, lflf);
}

}  // namespace

AdminServer::AdminServer(AdminServerConfig config) : config_(std::move(config)) {
  rc::obs::MetricsRegistry* metrics = config_.metrics;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<rc::obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  rejected_fd_limit_ =
      &metrics->GetCounter("rc_net_conn_rejected", {{"reason", "fd_limit"}});
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Handle(std::string path, Handler handler) {
  routes_[std::move(path)] = std::move(handler);
}

bool AdminServer::Start() {
  if (running_.load(std::memory_order_acquire)) return true;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Stop();
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return true;
}

void AdminServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    epoll_fd_ = wake_fd_ = listen_fd_ = -1;
    return;
  }
  stopping_.store(true, std::memory_order_release);
  uint64_t nudge = 1;
  (void)WriteEintr(wake_fd_, &nudge, sizeof(nudge));
  if (thread_.joinable()) thread_.join();
  for (const auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  ::close(epoll_fd_);
  ::close(wake_fd_);
  ::close(listen_fd_);
  epoll_fd_ = wake_fd_ = listen_fd_ = -1;
}

void AdminServer::Loop() {
  epoll_event events[kMaxEpollEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t mask = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drain;
        (void)ReadEintr(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(fd);
        continue;
      }
      if ((mask & EPOLLIN) != 0 && !ReadReady(conn)) continue;
      if ((mask & EPOLLOUT) != 0) WriteReady(conn);
    }
  }
}

void AdminServer::AcceptReady() {
  for (;;) {
    int fd = AcceptEintr(listen_fd_);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {  // see FdReserve
        if (!fd_reserve_.Shed(listen_fd_)) return;
        rejected_fd_limit_->Increment();
        continue;
      }
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
  }
}

bool AdminServer::ReadReady(Conn& conn) {
  for (;;) {
    size_t old = conn.in.size();
    conn.in.resize(old + kReadChunk);
    ssize_t r = ReadEintr(conn.fd, conn.in.data() + old, kReadChunk);
    if (r > 0) {
      conn.in.resize(old + static_cast<size_t>(r));
      if (static_cast<size_t>(r) < kReadChunk) break;
      continue;
    }
    conn.in.resize(old);
    if (r == 0) {  // peer closed before (or after) a full request
      CloseConn(conn.fd);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn.fd);
    return false;
  }
  if (!conn.responded) {
    MaybeRespond(conn);
  } else {
    // Response already queued; anything else the peer dribbles in is
    // discarded so a hostile sender cannot grow the buffer unboundedly.
    conn.in.clear();
  }
  if (!conn.out.empty()) return WriteReady(conn);
  return true;
}

void AdminServer::MaybeRespond(Conn& conn) {
  size_t header_end = HeaderEnd(conn.in);
  if (header_end == std::string::npos) {
    if (conn.in.size() > config_.max_request_bytes) {
      QueueResponse(conn, {414, "text/plain; charset=utf-8", "request too large\n"});
    }
    return;  // keep buffering the dribble
  }
  // Request line: METHOD SP TARGET SP VERSION. Anything else is a 400 —
  // answered, not dropped, so a probing client sees why it failed.
  std::string_view head(reinterpret_cast<const char*>(conn.in.data()), header_end);
  size_t eol = head.find_first_of("\r\n");
  std::string_view line = eol == std::string_view::npos ? head : head.substr(0, eol);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.find("HTTP/", sp2 + 1) != sp2 + 1) {
    QueueResponse(conn, {400, "text/plain; charset=utf-8", "malformed request\n"});
    return;
  }
  std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    QueueResponse(conn, {405, "text/plain; charset=utf-8", "GET only\n"});
    return;
  }
  std::string path(target.substr(0, target.find('?')));
  auto it = routes_.find(path);
  if (it == routes_.end()) {
    QueueResponse(conn, {404, "text/plain; charset=utf-8", "no such endpoint\n"});
    return;
  }
  QueueResponse(conn, it->second());
}

void AdminServer::QueueResponse(Conn& conn, const Response& response) {
  conn.responded = true;
  conn.out = "HTTP/1.0 " + std::to_string(response.status) + " " +
             ReasonPhrase(response.status) +
             "\r\nContent-Type: " + response.content_type +
             "\r\nContent-Length: " + std::to_string(response.body.size()) +
             "\r\nConnection: close\r\n\r\n" +
             response.body;
}

bool AdminServer::WriteReady(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    ssize_t w =
        WriteEintr(conn.fd, conn.out.data() + conn.out_off, conn.out.size() - conn.out_off);
    if (w > 0) {
      conn.out_off += static_cast<size_t>(w);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return UpdateEpollOut(conn, true);
    CloseConn(conn.fd);
    return false;
  }
  if (conn.responded) {  // HTTP/1.0: one request, one response, close
    CloseConn(conn.fd);
    return false;
  }
  return true;
}

bool AdminServer::UpdateEpollOut(Conn& conn, bool want) {
  if (conn.epollout_armed == want) return true;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
    CloseConn(conn.fd);
    return false;
  }
  conn.epollout_armed = want;
  return true;
}

void AdminServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
}

}  // namespace rc::net
