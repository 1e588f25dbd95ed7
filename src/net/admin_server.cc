#include "src/net/admin_server.h"

#include <algorithm>
#include <string_view>

namespace rc::net {

namespace {

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
  return loop_.Start(*this, {.bind_address = config_.bind_address,
                             .port = config_.port,
                             .num_workers = 1,
                             .backlog = 64,
                             .read_chunk = 4096,
                             .read_limit = kMaxRequestBytes,
                             .rejected_fd_limit = rejected_fd_limit_});
}

void AdminServer::Stop() { loop_.Stop(); }

void AdminServer::MaybeRespond(Conn& conn) {
  size_t header_end = HeaderEnd(conn.in);
  if (header_end == std::string::npos) {
    if (conn.in.size() > kMaxRequestBytes) {
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
  // HTTP/1.0: one request, one response, then close.
  conn.close_after_flush = true;
  const std::string head = "HTTP/1.0 " + std::to_string(response.status) + " " +
                           ReasonPhrase(response.status) +
                           "\r\nContent-Type: " + response.content_type +
                           "\r\nContent-Length: " + std::to_string(response.body.size()) +
                           "\r\nConnection: close\r\n\r\n";
  conn.out.reserve(head.size() + response.body.size());
  conn.out.insert(conn.out.end(), head.begin(), head.end());
  conn.out.insert(conn.out.end(), response.body.begin(), response.body.end());
}

}  // namespace rc::net
