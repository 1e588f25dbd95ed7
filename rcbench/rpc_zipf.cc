// rpc_zipf: open-loop RCNP serving. The six models sit behind a default
// push-mode core::Client and an in-process rc::net::Server with 2 workers.
// One sender thread writes PredictSingle / PredictMany(16) frames on a
// seeded Poisson schedule over 2 connections; one receiver thread decodes
// the replies and times each request from the moment it was due, so a
// stall is charged to every request queued behind it. 2 load threads + 2
// server workers = 4 threads, sized for a 4-core host.
//
// Phases: light and heavy fixed offered rates, then a closed-loop
// saturation phase (512 requests in flight) for the service's capacity.
// Every reply is checked against a single-threaded cache-off client.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <span>
#include <thread>

#include "rcbench/common.h"
#include "src/net/protocol.h"
#include "src/net/server.h"
#include "src/trace/vm_size_catalog.h"

namespace rcbench {

namespace {

using rc::core::ClientInputs;
using rc::core::Prediction;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;
constexpr size_t kKeys = 4096;
constexpr double kZipfS = 0.99;
constexpr double kManyShare = 0.25;
constexpr size_t kManyBatch = 16;
const char* const kModels[2] = {"VM_AVGUTIL", "VM_P95UTIL"};

// Offered rates in requests/s (x 4.75 for predictions/s). On a 4-vCPU host
// at seed 42 the closed-loop capacity is about 470k requests/s: light sits
// far below it, heavy near a quarter of it.
constexpr double kLightRate = 5'000.0;
constexpr double kHeavyRate = 120'000.0;
// The generator is on time when it puts 99% of a slice's requests on the
// wire within this much of their due time.
constexpr double kGenLateBoundUs = 250.0;
// Latency percentiles are medians over this many slices of a phase.
constexpr size_t kSlices = 10;
constexpr size_t kLightSlices = 5;
// Closed-loop saturation phase: outstanding requests kept in flight, and
// the slot over which completed predictions are counted.
constexpr uint64_t kSaturationWindow = 512;
constexpr double kSaturationScheduleRate = 700'000.0;  // only sizes the request list
constexpr uint64_t kSlotNs = 100'000'000;

struct Request {
  uint64_t due_ns = 0;   // offset from the phase start
  uint32_t key_off = 0;  // first entry in Schedule::keys
  uint8_t many = 0;
  uint8_t model = 0;
  uint8_t conn = 0;
};

struct Schedule {
  std::vector<Request> requests;
  std::vector<uint16_t> keys;  // indices into the 4,096 inputs
};

Schedule MakeSchedule(double rate, double seconds, uint64_t seed, const Zipf& zipf,
                      const std::vector<uint32_t>& rank_to_key) {
  rc::Rng rng(seed);
  Schedule s;
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  uint64_t i = 0;
  for (;;) {
    t += rng.Exponential(rate) * 1e9;
    if (t >= horizon_ns) break;
    Request r;
    r.due_ns = static_cast<uint64_t>(t);
    r.many = rng.NextDouble() < kManyShare ? 1 : 0;
    r.model = rng.NextDouble() < 0.5 ? 0 : 1;
    r.conn = static_cast<uint8_t>(i++ % kConnections);
    r.key_off = static_cast<uint32_t>(s.keys.size());
    const size_t n = r.many ? kManyBatch : 1;
    for (size_t k = 0; k < n; ++k) s.keys.push_back(static_cast<uint16_t>(rank_to_key[zipf(rng)]));
    s.requests.push_back(r);
  }
  return s;
}

struct PhaseStats {
  std::string name;
  double offered_rate = 0.0;  // requests/s
  double seconds = 0.0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t predictions = 0;
  uint64_t many_predictions = 0;
  // Per sent request, in due-time order: latency from its due time (-1 when
  // it failed), how late the generator sent it, and whether it was a
  // PredictMany.
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<uint8_t> many;
  double late_p99_us = 0.0;
  double backlog_mean = 0.0;  // outstanding requests, sampled every 1 ms
  bool overloaded = false;    // stopped sending early: far past capacity
  std::vector<uint64_t> slot_preds;  // predictions completed per kSlotNs slot

  bool valid() const { return late_p99_us <= kGenLateBoundUs; }
};

// A latency percentile of a phase's singles (or PredictMany requests): the
// median over consecutive slices of each slice's percentile. A slice whose
// generator fell behind is invalid and left out, so a stall of the
// generator is not reported as a latency; a stall of the server spoils one
// slice, not the median (this runs on a shared VM with CPU steal). Heavy
// slices hold over 2,000 samples of each kind and light ones 1,400 singles,
// so each slice's P99 has at least ten samples beyond it. `valid` receives
// the number of valid slices; with none, all slices are used.
double SlicedPercentile(const PhaseStats& s, bool many, double p, size_t slices,
                        size_t* valid = nullptr) {
  std::vector<double> kept, all;
  const size_t n = s.latency_us.size();
  for (size_t w = 0; w < slices; ++w) {
    std::vector<double> latency, late;
    for (size_t i = n * w / slices; i < n * (w + 1) / slices; ++i) {
      late.push_back(s.late_us[i]);
      if (s.latency_us[i] >= 0 && (s.many[i] != 0) == many) latency.push_back(s.latency_us[i]);
    }
    const double v = Percentile(latency, p);
    all.push_back(v);
    if (Percentile(late, 99.0) <= kGenLateBoundUs) kept.push_back(v);
  }
  if (valid != nullptr) *valid = kept.size();
  return Median(kept.empty() ? all : kept);
}

// Receive buffer of one connection: bytes [off, len) are unparsed. Room is
// made by sliding the unparsed tail to the front, growing only when a
// single frame outgrows the buffer, and never zero-fills what recv writes.
struct InBuf {
  size_t cap = size_t{1} << 20;
  std::unique_ptr<uint8_t[]> data = std::make_unique_for_overwrite<uint8_t[]>(cap);
  size_t len = 0;
  size_t off = 0;

  void MakeRoom(size_t room) {
    if (cap - len >= room) return;
    std::memmove(data.get(), data.get() + off, len - off);
    len -= off;
    off = 0;
    if (cap - len >= room) return;
    auto bigger = std::make_unique_for_overwrite<uint8_t[]>(2 * cap);
    std::memcpy(bigger.get(), data.get(), len);
    data = std::move(bigger);
    cap *= 2;
  }
};

int ConnectLoopback(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Everything one rpc_zipf process holds after set-up.
struct Rig {
  SixModels six;
  std::unique_ptr<rc::obs::MetricsRegistry> registry;
  std::unique_ptr<rc::core::Client> client;
  std::unique_ptr<rc::net::Server> server;
  std::vector<ClientInputs> keys;
  int fds[kConnections] = {-1, -1};

  ~Rig() {
    for (int fd : fds) {
      if (fd >= 0) close(fd);
    }
    if (server) server->Stop();
  }
};

class LoadGenerator {
 public:
  LoadGenerator(Rig& rig, const std::vector<Prediction>& reference, RunRecord& record, uint64_t seed)
      : rig_(rig), reference_(reference), record_(record), seed_(seed), zipf_(kKeys, kZipfS) {
    rc::Rng rng(seed ^ 0x5EED'0001ull);
    rank_to_key_ = Permutation(rig.keys.size(), rng);
  }

  // Runs one open-loop phase at `rate` requests/s for `seconds`.
  // With `window` > 0 the phase is closed-loop instead: requests go out as
  // fast as replies return, never more than `window` outstanding, for
  // `seconds` (the schedule at `rate` only supplies the request mix).
  PhaseStats Run(const std::string& name, double rate, double seconds, uint64_t phase_tag,
                 std::vector<Span>* spans = nullptr, uint64_t window = 0);

 private:
  Rig& rig_;
  const std::vector<Prediction>& reference_;
  RunRecord& record_;
  uint64_t seed_;
  Zipf zipf_;
  std::vector<uint32_t> rank_to_key_;
  uint64_t next_request_id_ = 1;
};

PhaseStats LoadGenerator::Run(const std::string& name, double rate, double seconds,
                       uint64_t phase_tag, std::vector<Span>* spans, uint64_t window) {
  const Schedule schedule =
      MakeSchedule(rate, seconds, seed_ * 1'000'003ull + phase_tag, zipf_, rank_to_key_);
  const std::vector<Request>& reqs = schedule.requests;
  const size_t n = reqs.size();
  const uint64_t base_id = next_request_id_;
  next_request_id_ += n + 1;
  const bool traced = spans != nullptr;
  // A rung far past capacity stops sending once this many requests are
  // outstanding (50 ms of arrivals), so its queue drains quickly.
  const uint64_t max_outstanding = std::max<uint64_t>(2000, static_cast<uint64_t>(rate * 0.05));
  // Replies that stop coming for this long mean a dead connection.
  const uint64_t hard_deadline_ns = static_cast<uint64_t>(seconds * 1e9) + 15'000'000'000ull;
  std::atomic<bool> overloaded{false};
  std::atomic<bool> aborted{false};

  std::vector<double> late_us(n, 0.0);
  std::vector<double> latency_us(n, -1.0);
  std::vector<uint8_t> status(n, 0);  // 0 pending, 1 ok, 2 failed
  // Predictions completed per kSlotNs slot of the phase (receiver only).
  std::vector<uint64_t> slot_preds(static_cast<size_t>(seconds * 1e9 / kSlotNs) + 1, 0);
  // Span timestamps (traced only): encode, send, receive, decode.
  std::vector<uint64_t> ts;
  if (traced) ts.assign(n * 8, 0);

  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> finished{0};
  std::atomic<bool> sender_done{false};
  std::vector<std::pair<uint64_t, uint64_t>> backlog;  // (time offset, outstanding)
  const uint64_t t0 = NowNs() + 2'000'000;

  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    std::vector<uint8_t> out[kConnections];
    size_t out_off[kConnections] = {0, 0};
    std::vector<size_t> unsent[kConnections];  // traced: requests awaiting a send span
    size_t i = 0;
    size_t limit = n;
    uint64_t next_sample = t0;
    const uint64_t window_end = t0 + static_cast<uint64_t>(seconds * 1e9);
    auto ready = [&](uint64_t now) {
      if (window == 0) return t0 + reqs[i].due_ns <= now;
      if (now >= window_end) limit = i;
      return now >= t0 && i < limit && i - finished.load(std::memory_order_acquire) < window;
    };
    while (true) {
      uint64_t now = NowNs();
      while (i < limit && ready(now)) {
        const Request& r = reqs[i];
        if (window == 0) late_us[i] = static_cast<double>(now - (t0 + r.due_ns)) / 1000.0;
        std::vector<uint8_t>& buf = out[r.conn];
        const uint64_t e0 = traced ? NowNs() : 0;
        if (r.many) {
          ClientInputs batch[kManyBatch];
          for (size_t k = 0; k < kManyBatch; ++k) batch[k] = rig_.keys[schedule.keys[r.key_off + k]];
          rc::net::AppendPredictManyRequest(buf, base_id + i, kModels[r.model],
                                            std::span<const ClientInputs>(batch, kManyBatch));
        } else {
          rc::net::AppendPredictSingleRequest(buf, base_id + i, kModels[r.model],
                                              rig_.keys[schedule.keys[r.key_off]]);
        }
        if (traced) {
          ts[i * 8 + 0] = e0;
          ts[i * 8 + 1] = NowNs();
          unsent[r.conn].push_back(i);
        }
        ++i;
      }
      for (int c = 0; c < kConnections; ++c) {
        if (out_off[c] >= out[c].size()) continue;
        const uint64_t w0 = traced ? NowNs() : 0;
        const ssize_t w = send(rig_.fds[c], out[c].data() + out_off[c], out[c].size() - out_off[c],
                               MSG_DONTWAIT | MSG_NOSIGNAL);
        if (w > 0) out_off[c] += static_cast<size_t>(w);
        if (out_off[c] == out[c].size()) {
          out[c].clear();
          out_off[c] = 0;
        } else if (out_off[c] > (1u << 20)) {
          out[c].erase(out[c].begin(), out[c].begin() + static_cast<std::ptrdiff_t>(out_off[c]));
          out_off[c] = 0;
        }
        if (traced) {
          const uint64_t w1 = NowNs();
          for (size_t j : unsent[c]) {
            ts[j * 8 + 2] = w0;
            ts[j * 8 + 3] = w1;
          }
          unsent[c].clear();
        }
      }
      sent.store(i, std::memory_order_release);
      now = NowNs();
      if (now >= next_sample) {
        const uint64_t outstanding = i - finished.load(std::memory_order_acquire);
        backlog.emplace_back(now - t0, outstanding);
        next_sample = now + 1'000'000;
        if (outstanding > max_outstanding && limit == n) {
          limit = i;
          overloaded.store(true, std::memory_order_relaxed);
        }
      }
      const bool pending = out_off[0] < out[0].size() || out_off[1] < out[1].size();
      if (i >= limit && !pending) break;
      if (now > t0 + hard_deadline_ns) {
        aborted.store(true, std::memory_order_relaxed);
        break;
      }
      if (i < limit && window > 0) {
        // Closed loop: spin until a reply frees a slot.
      } else if (i < limit) {
        const uint64_t due = t0 + reqs[i].due_ns;
        // Sleep only when the next request is far off; wake-ups are late by
        // tens of microseconds, so the final stretch is spent spinning.
        if (due > now + 300'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 200'000));
        }
      } else {
        pollfd pfds[kConnections];
        for (int c = 0; c < kConnections; ++c) pfds[c] = {rig_.fds[c], POLLOUT, 0};
        poll(pfds, kConnections, 1);
      }
    }
    sender_done.store(true, std::memory_order_release);
  });

  std::thread receiver([&] {
    int ep = epoll_create1(EPOLL_CLOEXEC);
    for (int c = 0; c < kConnections; ++c) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(c);
      epoll_ctl(ep, EPOLL_CTL_ADD, rig_.fds[c], &ev);
    }
    InBuf in[kConnections];
    std::vector<Prediction> many;
    uint64_t done = 0;
    uint64_t last_progress = NowNs();
    auto fail = [&](size_t idx) {
      status[idx] = 2;
      ++done;
    };
    for (;;) {
      // sent is final once sender_done is set.
      if (sender_done.load(std::memory_order_acquire) &&
          done >= sent.load(std::memory_order_acquire)) {
        break;
      }
      epoll_event events[kConnections];
      const int ready = epoll_wait(ep, events, kConnections, 20);
      const uint64_t now_wait = NowNs();
      if ((sender_done.load(std::memory_order_acquire) &&
           now_wait - last_progress > 5'000'000'000ull) ||
          now_wait > t0 + hard_deadline_ns + 5'000'000'000ull) {
        aborted.store(true, std::memory_order_relaxed);
        break;  // replies stopped coming: the rest count as failed below
      }
      for (int e = 0; e < ready; ++e) {
        const int c = static_cast<int>(events[e].data.u32);
        InBuf& buf = in[c];
        const uint64_t r0 = NowNs();
        // One read per readiness event: parsing between reads keeps the
        // buffer bounded while the server streams replies faster than we
        // could drain the socket to EAGAIN.
        buf.MakeRoom(65536);
        const ssize_t got =
            recv(rig_.fds[c], buf.data.get() + buf.len, buf.cap - buf.len, MSG_DONTWAIT);
        if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
          epoll_ctl(ep, EPOLL_CTL_DEL, rig_.fds[c], nullptr);  // peer closed: stop polling
        }
        if (got > 0) buf.len += static_cast<size_t>(got);
        const uint64_t r1 = NowNs();
        while (buf.len - buf.off >= rc::net::kLengthPrefixBytes) {
          uint32_t len = 0;
          std::memcpy(&len, buf.data.get() + buf.off, sizeof(len));
          if (buf.len - buf.off - rc::net::kLengthPrefixBytes < len) break;
          const uint8_t* payload = buf.data.get() + buf.off + rc::net::kLengthPrefixBytes;
          buf.off += rc::net::kLengthPrefixBytes + len;
          const uint64_t d0 = NowNs();
          rc::ml::ByteReader r(payload, len);
          rc::net::FrameHeader header;
          if (rc::net::DecodeHeader(r, &header) != rc::net::WireStatus::kOk ||
              header.request_id < base_id || header.request_id >= base_id + n) {
            record_.Mismatch("undecodable or unexpected reply frame");
            continue;
          }
          const size_t idx = header.request_id - base_id;
          if (status[idx] != 0) continue;
          const Request& req = reqs[idx];
          rc::net::WireStatus wire = rc::net::WireStatus::kOk;
          std::string error;
          bool decoded = false;
          const size_t ref_base = static_cast<size_t>(req.model) * rig_.keys.size();
          if (req.many) {
            decoded = rc::net::DecodePredictManyResponse(r, rc::net::kMaxBatch, &wire, &many, &error);
            if (decoded && wire == rc::net::WireStatus::kOk) {
              if (many.size() != kManyBatch) {
                record_.Mismatch("PredictMany reply has " + std::to_string(many.size()) + " results");
              } else {
                for (size_t k = 0; k < kManyBatch; ++k) {
                  const Prediction& want = reference_[ref_base + schedule.keys[req.key_off + k]];
                  if (!SamePrediction(many[k], want)) {
                    record_.Mismatch(std::string("rpc_zipf many ") + kModels[req.model] + ": got " +
                                     Describe(many[k]) + ", want " + Describe(want));
                  }
                }
              }
            }
          } else {
            Prediction p;
            decoded = rc::net::DecodePredictSingleResponse(r, &wire, &p, &error);
            if (decoded && wire == rc::net::WireStatus::kOk) {
              const Prediction& want = reference_[ref_base + schedule.keys[req.key_off]];
              if (!SamePrediction(p, want)) {
                record_.Mismatch(std::string("rpc_zipf single ") + kModels[req.model] + ": got " +
                                 Describe(p) + ", want " + Describe(want));
              }
            }
          }
          const uint64_t d1 = NowNs();
          if (!decoded || wire != rc::net::WireStatus::kOk) {
            fail(idx);
          } else {
            status[idx] = 1;
            ++done;
            if (window == 0) latency_us[idx] = static_cast<double>(d1 - (t0 + req.due_ns)) / 1000.0;
            const size_t slot = static_cast<size_t>((d1 - t0) / kSlotNs);
            if (slot < slot_preds.size()) slot_preds[slot] += req.many ? kManyBatch : 1;
          }
          if (traced) {
            ts[idx * 8 + 4] = r0;
            ts[idx * 8 + 5] = r1;
            ts[idx * 8 + 6] = d0;
            ts[idx * 8 + 7] = d1;
          }
          last_progress = d1;
        }
      }
      finished.store(done, std::memory_order_release);
    }
    close(ep);
  });
  sender.join();
  receiver.join();
  std::cerr << "rpc_zipf phase " << name << ": " << sent.load() << " of " << n << " sent, "
            << finished.load() << " answered in " << SecondsBetween(t0, NowNs()) << " s"
            << (overloaded.load() ? ", overloaded" : "") << (aborted.load() ? ", ABORTED" : "")
            << "\n";
  if (aborted.load()) {
    // Replies or request bytes may still be in flight; start the next phase
    // on fresh connections so nothing of this one leaks into it.
    for (int& fd : rig_.fds) {
      close(fd);
      fd = ConnectLoopback(rig_.server->port());
    }
  }

  PhaseStats st;
  st.name = name;
  st.offered_rate = rate;
  st.seconds = seconds;
  st.sent = sent.load();
  st.overloaded = overloaded.load();
  st.slot_preds = std::move(slot_preds);
  latency_us.resize(st.sent);
  late_us.resize(st.sent);
  for (size_t i = 0; i < st.sent; ++i) {
    st.many.push_back(reqs[i].many);
    if (status[i] != 1) {
      ++st.failed;
      latency_us[i] = -1.0;
      continue;
    }
    ++st.ok;
    const uint64_t preds = reqs[i].many ? kManyBatch : 1;
    st.predictions += preds;
    if (reqs[i].many) st.many_predictions += preds;
  }
  st.late_p99_us = Percentile(late_us, 99.0);
  st.latency_us = std::move(latency_us);
  st.late_us = std::move(late_us);
  double outstanding_sum = 0.0;
  for (const auto& sample : backlog) outstanding_sum += static_cast<double>(sample.second);
  st.backlog_mean = backlog.empty() ? 0.0 : outstanding_sum / static_cast<double>(backlog.size());

  if (traced) {
    for (size_t i = 0; i < n; ++i) {
      if (status[i] != 1) continue;
      const uint64_t rid = base_id + i;
      const uint64_t root = rid * 8 + 1;
      const uint64_t* t = &ts[i * 8];
      spans->push_back({"rpc/request", root, 0, rid, t0 + reqs[i].due_ns, t[7]});
      spans->push_back({"rpc/encode", root + 1, root, rid, t[0], t[1]});
      spans->push_back({"rpc/send", root + 2, root, rid, t[2], t[3]});
      spans->push_back({"rpc/receive", root + 3, root, rid, t[4], t[5]});
      spans->push_back({"rpc/decode", root + 4, root, rid, t[6], t[7]});
    }
  }
  return st;
}

// Median over the phase's whole slots, the first (ramp-up) excluded, of the
// predictions completed per second.
double SlotMedianRate(const PhaseStats& s) {
  std::vector<double> rates;
  const size_t whole = static_cast<size_t>(s.seconds * 1e9 / kSlotNs);
  for (size_t k = 1; k < whole && k < s.slot_preds.size(); ++k) {
    rates.push_back(static_cast<double>(s.slot_preds[k]) * 1e9 / kSlotNs);
  }
  return Median(rates);
}

void PrintPhase(const PhaseStats& s, size_t slices) {
  size_t valid = 0;
  const double sliced_p99 = SlicedPercentile(s, false, 99.0, slices, &valid);
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "  %-10s offered %7.0f req/s sent %7llu ok %7llu failed %4llu | single p50 %6.1f "
                "p99 %8.1f sliced-p99 %8.1f us (%zu/%zu slices valid) | many p99 %8.1f us | "
                "late p99 %6.1f us | backlog mean %6.1f%s%s\n",
                s.name.c_str(), s.offered_rate, static_cast<unsigned long long>(s.sent),
                static_cast<unsigned long long>(s.ok), static_cast<unsigned long long>(s.failed),
                SlicedPercentile(s, false, 50.0, 1), SlicedPercentile(s, false, 99.0, 1), sliced_p99,
                valid, slices, SlicedPercentile(s, true, 99.0, 1), s.late_p99_us, s.backlog_mean,
                s.overloaded ? " OVERLOADED" : "", s.valid() ? "" : " INVALID(generator behind)");
  std::cout << buf;
}

// Builds the whole rpc_zipf rig: trace, training, publish, client, server,
// connections, and an in-process warm-up of every (model, key) pair.
std::unique_ptr<Rig> SetUp(uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  rig->six = BuildSixModels(seed);
  static const rc::trace::VmSizeCatalog catalog;
  for (const auto& vm : rig->six.trace.vms()) {
    if (rig->keys.size() >= kKeys) break;
    if (!rig->six.trained.feature_data.contains(vm.subscription_id)) continue;
    rig->keys.push_back(rc::core::InputsFromVm(vm, catalog));
  }
  rig->registry = std::make_unique<rc::obs::MetricsRegistry>();
  rc::core::ClientConfig client_config;
  client_config.metrics = rig->registry.get();
  rig->client = std::make_unique<rc::core::Client>(rig->six.store.get(), client_config);
  if (!rig->client->Initialize()) return nullptr;
  rc::net::ServerConfig server_config;
  server_config.num_workers = kWorkers;
  server_config.metrics = rig->registry.get();
  rig->server = std::make_unique<rc::net::Server>(rig->client.get(), server_config);
  if (!rig->server->Start()) return nullptr;
  for (int c = 0; c < kConnections; ++c) {
    rig->fds[c] = ConnectLoopback(rig->server->port());
    if (rig->fds[c] < 0) return nullptr;
  }
  for (const char* model : kModels) {
    for (const auto& in : rig->keys) rig->client->PredictSingle(model, in);
  }
  return rig;
}

}  // namespace

void RunRpcZipf(const Options& options, RunRecord& record) {
  const uint64_t start = NowNs();
  // Set-up is repeated and its median reported; the last rig is measured.
  constexpr int kSetups = 3;
  std::vector<double> setup_s, gen_s, train_s, publish_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const uint64_t t0 = NowNs();
    rig = SetUp(options.seed);
    if (rig == nullptr || rig->keys.size() < kKeys) {
      record.Mismatch("rpc_zipf set-up failed");
      return;
    }
    setup_s.push_back(SecondsBetween(t0, NowNs()));
    gen_s.push_back(rig->six.trace_gen_s);
    train_s.push_back(rig->six.train_s);
    publish_s.push_back(rig->six.publish_s);
  }
  const uint64_t once0 = NowNs();
  const std::vector<std::string> models(std::begin(kModels), std::end(kModels));
  const std::vector<Prediction> reference = ReferenceAnswers(*rig->six.store, models, rig->keys);
  LoadGenerator generator(*rig, reference, record, options.seed);
  generator.Run("warm-up", kLightRate, 0.5, 1);
  const double once_s = SecondsBetween(once0, NowNs());
  std::cout << "rpc_zipf set-up: " << kSetups << " x (" << Median(setup_s)
            << " s median) + reference and network warm-up " << once_s << " s; first set-up began "
            << SecondsBetween(start, once0) << " s before the first timed phase\n";

  const double s = options.seconds;
  const rc::core::ClientStats before = rig->client->stats();
  std::vector<PhaseStats> phases;
  std::vector<Span> spans;
  double overhead_pct = 0.0;
  double saturation_preds_per_s = 0.0;
  if (!options.trace) {
    phases.push_back(generator.Run("light", kLightRate, 0.2 * s, 2));
    phases.push_back(generator.Run("heavy", kHeavyRate, 0.3 * s, 3));
    phases.push_back(generator.Run("saturation", kSaturationScheduleRate, 0.2 * s, 4, nullptr,
                                kSaturationWindow));
    saturation_preds_per_s = SlotMedianRate(phases.back());
  } else {
    phases.push_back(generator.Run("heavy", kHeavyRate, 0.3 * s, 3));
    phases.push_back(generator.Run("heavy-traced", kHeavyRate, 0.3 * s, 3, &spans));
    const double plain = SlicedPercentile(phases[0], false, 50.0, kSlices);
    const double traced = SlicedPercentile(phases[1], false, 50.0, kSlices);
    overhead_pct = plain > 0.0 ? 100.0 * (traced - plain) / plain : 0.0;
  }

  const rc::core::ClientStats after = rig->client->stats();
  std::cout << "-- rpc_zipf phases (latency measured from each request's due time)\n";
  uint64_t predictions = 0, many_predictions = 0;
  for (const PhaseStats& p : phases) {
    PrintPhase(p, p.name == "light" ? kLightSlices : kSlices);
    record.attempted += p.sent;
    record.failed += p.failed;
    predictions += p.predictions;
    many_predictions += p.many_predictions;
  }

  const PhaseStats* light = nullptr;
  const PhaseStats* heavy = nullptr;
  for (const PhaseStats& p : phases) {
    if (p.name == "light") light = &p;
    if (p.name == "heavy") heavy = &p;
  }
  const double setup = Median(setup_s) + once_s;
  const double failed_share =
      record.attempted > 0 ? static_cast<double>(record.failed) / static_cast<double>(record.attempted)
                           : 0.0;
  record.named.Set("setup_s", setup, "s");
  record.named.Set("peak_rss_mb", PeakRssMb(), "MB");
  record.named.Set("failed_share", failed_share, "ratio");
  if (light != nullptr) {
    record.named.Set("light_p50_us", SlicedPercentile(*light, false, 50.0, kLightSlices), "us");
    record.named.Set("light_p99_us", SlicedPercentile(*light, false, 99.0, kLightSlices), "us");
  }
  const double heavy_p50 = SlicedPercentile(*heavy, false, 50.0, kSlices);
  const double heavy_p99 = SlicedPercentile(*heavy, false, 99.0, kSlices);
  record.named.Set("heavy_p50_us", heavy_p50, "us");
  record.named.Set("heavy_p99_us", heavy_p99, "us");
  record.named.Set("heavy_many_p99_us", SlicedPercentile(*heavy, true, 99.0, kSlices), "us");
  if (!options.trace) record.named.Set("saturation_preds_per_s", saturation_preds_per_s, "preds/s");

  record.e2e.Set("setup_s", setup, "s");
  record.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  record.e2e.Set("work_per_s", saturation_preds_per_s, "1/s");
  record.e2e.Set("p50_us", heavy_p50, "us");

  if (options.trace) ZeroLayers(record.layers);
  ReportShares(SharesBetween(before, after),
               predictions > 0 ? static_cast<double>(many_predictions) / static_cast<double>(predictions)
                               : 0.0,
               record, options.trace);
  if (!options.trace) return;
  MetricSet& layers = record.layers;
  layers.Set("setup.trace_gen_s", Median(gen_s), "s");
  layers.Set("setup.train_s", Median(train_s), "s");
  layers.Set("setup.publish_s", Median(publish_s), "s");
  layers.Set("gen.late_p99_us", heavy->late_p99_us, "us");
  layers.Set("gen.backlog", heavy->backlog_mean, "count");
  layers.Set("trace.overhead_pct", overhead_pct, "%");
  const auto server_hist = HistogramSnapshot(*rig->registry, "rc_net_request_latency_us");
  layers.Set("net.server_us.p50", server_hist.Quantile(0.50), "us");
  layers.Set("net.server_us.p99", server_hist.Quantile(0.99), "us");
  const double wire_preds = static_cast<double>(CounterTotal(*rig->registry, "rc_net_predictions"));
  const double bytes = static_cast<double>(CounterTotal(*rig->registry, "rc_net_bytes_read") +
                                           CounterTotal(*rig->registry, "rc_net_bytes_written"));
  layers.Set("net.bytes_per_pred", wire_preds > 0 ? bytes / wire_preds : 0.0, "B");
  layers.Set("cache.admit_rejects", static_cast<double>(CounterTotal(*rig->registry, "rc_cache_admit_rejects")),
             "count");
  layers.Set("cache.evictions", static_cast<double>(CounterTotal(*rig->registry, "rc_cache_evictions")),
             "count");
  layers.Set("cache.probe_retries",
             static_cast<double>(CounterTotal(*rig->registry, "rc_cache_probe_retries")), "count");

  PrintSpanSummary(SummarizeSpans(spans));
  const std::string path = options.out_dir + "/spans-rpc_zipf-" + std::to_string(options.seed) + ".json";
  if (WriteSpans(path, spans)) std::cout << "spans written to " << path << "\n";

  ProbeContext ctx;
  ctx.store = rig->six.store.get();
  ctx.client = rig->client.get();
  ctx.models = models;
  ctx.inputs = rig->keys;
  ctx.features = &rig->six.trained.feature_data;
  for (const auto& [name, model] : rig->six.trained.models) ctx.classifiers[name] = model.get();
  RunLayerProbes(ctx, layers);
}

}  // namespace rcbench
