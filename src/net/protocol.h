// Wire protocol for the RC prediction service (DESIGN.md "Network
// service"). The paper's Resource Central is a datacenter service behind a
// client-side DLL; this is the framing that service speaks.
//
// Every frame — request or response — is length-prefixed and carries a
// fixed header, so a reader can always resynchronize on frame boundaries
// and validate before allocating:
//
//   offset  size  field
//        0     4  payload_len   (bytes after this field; <= kMaxFrameBytes)
//        4     4  magic         'RCNP' (0x504E4352 little-endian)
//        8     2  version       1 (legacy) or 2
//       10     2  opcode        Opcode (request) / same opcode echoed (response)
//       12     8  request_id    echoed verbatim in the response
//   v2 only:
//       20     1  flags         bit 0: trace-context block follows
//   v2, flags bit 0 set:
//       21     8  trace_id      rc::obs::TraceContext propagated end-to-end
//       29     8  span_id       the sender's span (becomes the parent here)
//       37     1  sampled
//        …     …  body          opcode-specific
//
// Version 2 adds the flags byte and the optional trace-context block
// (DESIGN.md "Tracing & introspection"); version-1 frames are still decoded
// (no flags byte) and answered with version-1 responses, so old peers keep
// round-tripping against a new server. Unknown v2 flag bits are kMalformed:
// the frame length cannot be interpreted without knowing every block.
//
// Response bodies always begin with a u16 WireStatus; a non-kOk status is
// followed by a length-prefixed error string and nothing else. Integers are
// little-endian (rc::ml::ByteWriter/ByteReader); the decoder validates
// counts against the remaining byte budget BEFORE allocating (the same
// hardening discipline as the model deserializers).
#ifndef RC_SRC_NET_PROTOCOL_H_
#define RC_SRC_NET_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/prediction.h"
#include "src/ml/bytes.h"
#include "src/obs/trace_context.h"

namespace rc::net {

inline constexpr uint32_t kMagic = 0x504E4352u;  // "RCNP" in LE byte order
inline constexpr uint16_t kProtocolVersion = 2;
inline constexpr uint16_t kProtocolVersionV1 = 1;  // legacy, still accepted
// Fixed v2 header after the length prefix: magic + version + opcode +
// request id + flags. The optional trace block is not part of this count.
inline constexpr size_t kHeaderBytes = 4 + 2 + 2 + 8 + 1;
// The v1 header had no flags byte.
inline constexpr size_t kHeaderBytesV1 = 4 + 2 + 2 + 8;
// Optional v2 trace-context block: trace_id + span_id + sampled.
inline constexpr size_t kTraceWireBytes = 8 + 8 + 1;
inline constexpr uint8_t kFlagTraceContext = 0x01;
inline constexpr size_t kLengthPrefixBytes = 4;
// Ceiling on payload_len; a peer announcing more is answered with
// kFrameTooLarge and disconnected (the stream cannot be resynchronized
// without trusting the length).
inline constexpr size_t kMaxFrameBytes = 4u << 20;
// Hard cap on PredictMany batch size (also bounds response frames).
inline constexpr size_t kMaxBatch = 8192;
// Encoded size of one ClientInputs record (u64 + 9 * i32 + f64).
inline constexpr size_t kInputsWireBytes = 8 + 4 * 9 + 8;

enum class Opcode : uint16_t {
  kPredictSingle = 1,
  kPredictMany = 2,
  kHealth = 3,
};

enum class WireStatus : uint16_t {
  kOk = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kBadOpcode = 3,
  kMalformed = 4,       // body failed to decode (truncated / inconsistent)
  kFrameTooLarge = 5,   // announced payload_len above the server's ceiling
  kBatchTooLarge = 6,   // PredictMany count above kMaxBatch
  kInternal = 7,        // server-side failure (e.g. injected fault)
};
const char* ToString(WireStatus status);

struct FrameHeader {
  uint32_t magic = kMagic;
  uint16_t version = kProtocolVersion;
  uint16_t opcode = 0;
  uint64_t request_id = 0;
  uint8_t flags = 0;         // v2 only; 0 for decoded v1 frames
  obs::TraceContext trace;   // filled when kFlagTraceContext was set
};

struct PredictSingleRequest {
  std::string model;
  core::ClientInputs inputs;
};

struct PredictManyRequest {
  std::string model;
  std::vector<core::ClientInputs> inputs;
};

// Health/stats opcode payload: a cheap liveness probe that also exposes the
// server's core counters without scraping the metrics endpoint.
struct HealthResponse {
  uint64_t requests = 0;          // frames answered (all opcodes)
  uint64_t predictions = 0;       // predictions served (batch elements count)
  uint64_t protocol_errors = 0;   // malformed frames answered with an error
  uint64_t active_connections = 0;
  uint32_t num_models = 0;        // models currently loaded in the client
};

// --- encode (append a complete frame, length prefix included, to `out`) ---

// `version` selects the header layout (responses echo the request's
// version so legacy peers can parse their replies); `trace`, when valid,
// rides in the v2 trace-context block and is ignored for v1 frames.
void AppendFrame(std::vector<uint8_t>& out, Opcode opcode, uint64_t request_id,
                 std::span<const uint8_t> body,
                 uint16_t version = kProtocolVersion,
                 const obs::TraceContext& trace = {});

void AppendPredictSingleRequest(std::vector<uint8_t>& out, uint64_t request_id,
                                const std::string& model, const core::ClientInputs& inputs,
                                const obs::TraceContext& trace = {});
void AppendPredictManyRequest(std::vector<uint8_t>& out, uint64_t request_id,
                              const std::string& model,
                              std::span<const core::ClientInputs> inputs,
                              const obs::TraceContext& trace = {});
void AppendHealthRequest(std::vector<uint8_t>& out, uint64_t request_id);

void AppendPredictSingleResponse(std::vector<uint8_t>& out, uint64_t request_id,
                                 const core::Prediction& prediction,
                                 uint16_t version = kProtocolVersion);
void AppendPredictManyResponse(std::vector<uint8_t>& out, uint64_t request_id,
                               std::span<const core::Prediction> predictions,
                               uint16_t version = kProtocolVersion);
void AppendHealthResponse(std::vector<uint8_t>& out, uint64_t request_id,
                          const HealthResponse& health,
                          uint16_t version = kProtocolVersion);
// Error response for any opcode: status + message, echoing the request id
// (0 when the header itself was unreadable).
void AppendErrorResponse(std::vector<uint8_t>& out, Opcode opcode, uint64_t request_id,
                         WireStatus status, std::string_view message,
                         uint16_t version = kProtocolVersion);

// --- decode ---

// Reads the fixed header from `r`, which must be positioned at the start of
// a frame payload (after the length prefix). Accepts versions 1 and 2 and
// leaves the reader positioned at the opcode body either way (for v2 it
// consumes the flags byte and, when present, the trace block — validated
// against the remaining bytes before any body decoding). Returns kOk and
// fills `header` when the header is structurally valid; a non-kOk result
// tells the caller which error frame to answer with. The request id is
// filled whenever at least the full header was present, so error replies
// can echo it.
WireStatus DecodeHeader(rc::ml::ByteReader& r, FrameHeader* header);

// Body decoders; the reader must be positioned right after the header.
// Return kOk on success; kMalformed / kBatchTooLarge otherwise. Never throw
// and never allocate more than the remaining byte budget justifies.
WireStatus DecodePredictSingleRequest(rc::ml::ByteReader& r, PredictSingleRequest* out);
WireStatus DecodePredictManyRequest(rc::ml::ByteReader& r, size_t max_batch,
                                    PredictManyRequest* out);

// Response decoders used by the pooled client. `remote_status` receives the
// wire status; predictions/health are only filled when it is kOk. The bool
// result is false when the response body itself is malformed.
bool DecodePredictSingleResponse(rc::ml::ByteReader& r, WireStatus* remote_status,
                                 core::Prediction* out, std::string* error);
bool DecodePredictManyResponse(rc::ml::ByteReader& r, size_t max_batch,
                               WireStatus* remote_status,
                               std::vector<core::Prediction>* out, std::string* error);
bool DecodeHealthResponse(rc::ml::ByteReader& r, WireStatus* remote_status,
                          HealthResponse* out, std::string* error);

// Shared helpers (used by tests to build hand-crafted frames).
void EncodeInputs(rc::ml::ByteWriter& w, const core::ClientInputs& inputs);
core::ClientInputs DecodeInputs(rc::ml::ByteReader& r);  // throws on truncation

}  // namespace rc::net

#endif  // RC_SRC_NET_PROTOCOL_H_
