// Frame fuzzer against a live server over raw sockets: truncation at every
// frame boundary, bit flips across the length prefix + header + body, and
// random garbage streams. The contract under fuzz (see server.h): the
// server never crashes, answers every structurally-malformed-but-framed
// request with a protocol-error response on the SAME connection (no
// disconnect), and keeps serving well-formed requests afterwards. Only an
// untrustworthy length prefix (announced payload above the ceiling) may
// close the connection — after flushing the error response.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/client.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/store/kv_store.h"

namespace rc::net {
namespace {

// An empty store is enough: protocol handling never needs a real model
// (prediction requests for unknown models answer no-prediction).
class FrameFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<rc::store::KvStore>();
    core_client_ = std::make_unique<rc::core::Client>(store_.get(), rc::core::ClientConfig{});
    ASSERT_TRUE(core_client_->Initialize());
    ServerConfig config;
    config.num_workers = 2;
    server_ = std::make_unique<Server>(core_client_.get(), config);
    ASSERT_TRUE(server_->Start());
  }

  int Connect() {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }

  static void SendAll(int fd, const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t w = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      ASSERT_GT(w, 0);
      off += static_cast<size_t>(w);
    }
  }

  // Reads exactly n bytes with a poll deadline. False on timeout/EOF.
  static bool RecvExact(int fd, uint8_t* buf, size_t n, int timeout_ms = 3000) {
    size_t off = 0;
    while (off < n) {
      pollfd p{fd, POLLIN, 0};
      int ready = ::poll(&p, 1, timeout_ms);
      if (ready <= 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      ssize_t r = ::read(fd, buf + off, n - off);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      off += static_cast<size_t>(r);
    }
    return true;
  }

  // Reads one complete frame (length prefix + payload). nullopt on
  // timeout/EOF/over-sized announcement.
  static std::optional<std::vector<uint8_t>> RecvFrame(int fd) {
    uint32_t payload_len;
    if (!RecvExact(fd, reinterpret_cast<uint8_t*>(&payload_len), sizeof(payload_len))) {
      return std::nullopt;
    }
    if (payload_len < kHeaderBytes || payload_len > kMaxFrameBytes) return std::nullopt;
    std::vector<uint8_t> payload(payload_len);
    if (!RecvExact(fd, payload.data(), payload.size())) return std::nullopt;
    return payload;
  }

  // Decodes the status a response payload carries.
  static std::optional<WireStatus> ResponseStatus(const std::vector<uint8_t>& payload) {
    rc::ml::ByteReader r(payload.data(), payload.size());
    FrameHeader header;
    if (r.remaining() < kHeaderBytes) return std::nullopt;
    (void)DecodeHeader(r, &header);
    if (r.remaining() < 2) return std::nullopt;
    return static_cast<WireStatus>(r.Pod<uint16_t>());
  }

  // The liveness probe: a fresh connection must still be answered.
  void ExpectServerAlive() {
    int fd = Connect();
    std::vector<uint8_t> frame;
    AppendHealthRequest(frame, 424242);
    SendAll(fd, frame);
    auto payload = RecvFrame(fd);
    ASSERT_TRUE(payload.has_value()) << "server stopped answering";
    EXPECT_EQ(ResponseStatus(*payload), WireStatus::kOk);
    ::close(fd);
  }

  static std::vector<uint8_t> ValidSingleRequest(uint64_t id = 1) {
    core::ClientInputs inputs;
    inputs.subscription_id = 7;
    std::vector<uint8_t> frame;
    AppendPredictSingleRequest(frame, id, "VM_AVGUTIL", inputs);
    return frame;
  }

  std::unique_ptr<rc::store::KvStore> store_;
  std::unique_ptr<rc::core::Client> core_client_;
  std::unique_ptr<Server> server_;
};

// Truncate a valid request at every possible byte boundary; the server must
// never crash and must keep serving fresh connections.
TEST_F(FrameFuzzTest, TruncationAtEveryBoundary) {
  std::vector<uint8_t> frame = ValidSingleRequest();
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    int fd = Connect();
    std::vector<uint8_t> prefix(frame.begin(), frame.begin() + static_cast<ptrdiff_t>(cut));
    if (!prefix.empty()) SendAll(fd, prefix);
    ::shutdown(fd, SHUT_WR);
    // Drain whatever the server says (nothing expected for a partial frame);
    // EOF/timeout are both acceptable — crashing or hanging is not.
    uint8_t sink[256];
    while (RecvExact(fd, sink, sizeof(sink), 100)) {
    }
    ::close(fd);
  }
  ExpectServerAlive();
}

// A structurally complete frame with a malformed body must be answered with
// a protocol error on the same connection, which then keeps working.
TEST_F(FrameFuzzTest, MalformedBodyAnsweredWithoutDisconnect) {
  std::vector<uint8_t> valid = ValidSingleRequest(55);
  // Keep the header but chop the body: re-frame so the length prefix is
  // consistent with the truncated bytes (a framed-but-short body).
  std::vector<uint8_t> body(valid.begin() + kLengthPrefixBytes + kHeaderBytes,
                            valid.end() - 10);
  std::vector<uint8_t> frame;
  AppendFrame(frame, Opcode::kPredictSingle, 55, body);

  int fd = Connect();
  SendAll(fd, frame);
  auto payload = RecvFrame(fd);
  ASSERT_TRUE(payload.has_value()) << "malformed body must be answered, not dropped";
  EXPECT_EQ(ResponseStatus(*payload), WireStatus::kMalformed);

  // Same connection, now a valid request: the stream resynchronized.
  SendAll(fd, ValidSingleRequest(56));
  payload = RecvFrame(fd);
  ASSERT_TRUE(payload.has_value()) << "connection must survive a malformed frame";
  EXPECT_EQ(ResponseStatus(*payload), WireStatus::kOk);
  ::close(fd);
}

// Bad magic / version / opcode frames: error response, no disconnect.
TEST_F(FrameFuzzTest, HeaderFieldCorruptionAnswered) {
  struct Case {
    size_t offset;  // into the payload (after the length prefix)
    WireStatus expect;
  };
  const Case cases[] = {
      {0, WireStatus::kBadMagic},    // magic byte
      {4, WireStatus::kBadVersion},  // version byte
      {6, WireStatus::kBadOpcode},   // opcode byte
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> frame = ValidSingleRequest(77);
    frame[kLengthPrefixBytes + c.offset] ^= 0x5A;
    int fd = Connect();
    SendAll(fd, frame);
    auto payload = RecvFrame(fd);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(ResponseStatus(*payload), c.expect);
    // Connection still serves.
    SendAll(fd, ValidSingleRequest(78));
    payload = RecvFrame(fd);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(ResponseStatus(*payload), WireStatus::kOk);
    ::close(fd);
  }
}

// An announced payload length above the server ceiling: the error response
// is flushed, then the connection closes (the stream cannot be trusted).
TEST_F(FrameFuzzTest, OversizedLengthAnsweredThenClosed) {
  std::vector<uint8_t> frame = ValidSingleRequest(88);
  uint32_t huge = kMaxFrameBytes + 1;  // one byte above the 4 MiB ceiling
  std::memcpy(frame.data(), &huge, sizeof(huge));
  int fd = Connect();
  SendAll(fd, frame);
  auto payload = RecvFrame(fd);
  ASSERT_TRUE(payload.has_value()) << "oversize announcement must still be answered";
  EXPECT_EQ(ResponseStatus(*payload), WireStatus::kFrameTooLarge);
  // Then EOF: the server closed after flushing.
  uint8_t sink;
  EXPECT_FALSE(RecvExact(fd, &sink, 1, 2000));
  ::close(fd);
  ExpectServerAlive();
}

// Random single-bit flips anywhere in the frame. Every outcome is legal
// except a crash or an unframed response: we either get a well-formed frame
// back, or nothing (flip landed in the length prefix and left the server
// waiting / closing). The server must stay alive throughout.
TEST_F(FrameFuzzTest, RandomBitFlipsNeverKillTheServer) {
  rc::Rng rng(20260807);
  std::vector<uint8_t> base = ValidSingleRequest(99);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> frame = base;
    size_t byte = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(frame.size()) - 1));
    frame[byte] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    int fd = Connect();
    SendAll(fd, frame);
    auto payload = RecvFrame(fd);
    if (payload.has_value()) {
      // Whatever came back must be a complete, magic-stamped frame.
      rc::ml::ByteReader r(payload->data(), payload->size());
      FrameHeader header;
      (void)DecodeHeader(r, &header);
      EXPECT_EQ(header.magic, kMagic);
    }
    ::close(fd);
  }
  ExpectServerAlive();
}

// Pure garbage streams (no framing at all) in several sizes.
TEST_F(FrameFuzzTest, GarbageStreamsSurvived) {
  rc::Rng rng(7);
  for (size_t size : {1u, 3u, 4u, 17u, 128u, 4096u}) {
    std::vector<uint8_t> junk(size);
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.NextU64());
    // Force a small length prefix so the junk parses as framed garbage
    // rather than an over-sized announcement half the time.
    if (size >= 4 && (size % 2) == 0) {
      uint32_t len = static_cast<uint32_t>(size - 4);
      std::memcpy(junk.data(), &len, sizeof(len));
    }
    int fd = Connect();
    SendAll(fd, junk);
    ::shutdown(fd, SHUT_WR);
    uint8_t sink[256];
    while (RecvExact(fd, sink, sizeof(sink), 100)) {
    }
    ::close(fd);
  }
  ExpectServerAlive();
}

// Two requests coalesced into one TCP segment and one request dribbled a
// byte at a time: framing is independent of segmentation.
TEST_F(FrameFuzzTest, CoalescedAndDribbledFrames) {
  int fd = Connect();
  std::vector<uint8_t> two = ValidSingleRequest(1);
  std::vector<uint8_t> second = ValidSingleRequest(2);
  two.insert(two.end(), second.begin(), second.end());
  SendAll(fd, two);
  auto a = RecvFrame(fd);
  auto b = RecvFrame(fd);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(ResponseStatus(*a), WireStatus::kOk);
  EXPECT_EQ(ResponseStatus(*b), WireStatus::kOk);

  std::vector<uint8_t> dribble = ValidSingleRequest(3);
  for (uint8_t byte : dribble) {
    SendAll(fd, {byte});
  }
  auto c = RecvFrame(fd);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(ResponseStatus(*c), WireStatus::kOk);
  ::close(fd);
}

}  // namespace
}  // namespace rc::net
