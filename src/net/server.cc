#include "src/net/server.h"

#include <cstring>

#include "src/common/faults.h"
#include "src/obs/trace_context.h"

namespace rc::net {

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
      "rc_net_request_latency_us", {}, "server-side frame handle latency (us)");
}

Server::~Server() { Stop(); }

bool Server::Start() {
  return loop_.Start(*this, {.bind_address = config_.bind_address,
                             .port = config_.port,
                             .num_workers = config_.num_workers,
                             .backlog = 512,
                             .read_chunk = 64 * 1024,
                             .rejected_fd_limit = m_.rejected_fd_limit,
                             .connections_accepted = m_.connections_accepted,
                             .connections_active = m_.connections_active,
                             .bytes_read = m_.bytes_read,
                             .bytes_written = m_.bytes_written});
}

void Server::Stop() { loop_.Stop(); }

HealthResponse Server::Health() const {
  HealthResponse h;
  h.requests = m_.requests->Value();
  h.predictions = m_.predictions->Value();
  h.protocol_errors = m_.protocol_errors->Value();
  h.active_connections = loop_.active_connections();
  h.num_models = static_cast<uint32_t>(client_->GetAvailableModels().size());
  return h;
}

void Server::ProcessFrames(Conn& conn) {
  size_t off = 0;
  while (!conn.close_after_flush && conn.in.size() - off >= kLengthPrefixBytes) {
    uint32_t payload_len;
    std::memcpy(&payload_len, conn.in.data() + off, sizeof(payload_len));
    if (payload_len > kMaxFrameBytes) {
      // The length cannot be trusted, so the stream cannot be resynchronized:
      // answer the protocol error, then close once it is flushed.
      m_.protocol_errors->Increment();
      m_.requests->Increment();
      AppendErrorResponse(conn.out, Opcode::kPredictSingle, 0, WireStatus::kFrameTooLarge,
                          ToString(WireStatus::kFrameTooLarge));
      conn.close_after_flush = true;
      break;
    }
    if (conn.in.size() - off < kLengthPrefixBytes + payload_len) break;  // partial frame
    HandleFrame(conn, conn.in.data() + off + kLengthPrefixBytes, payload_len);
    off += kLengthPrefixBytes + payload_len;
  }
  if (off > 0) conn.in.erase(conn.in.begin(), conn.in.begin() + static_cast<ptrdiff_t>(off));
}

void Server::HandleFrame(Conn& conn, const uint8_t* payload, size_t size) {
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
  // client) parent into the caller's tree. The socket read that delivered the
  // frame is recorded retroactively as a sibling span, and the response
  // write + server-side finish happen when the reply drains.
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
      status = DecodePredictManyRequest(r, kMaxBatch, &req);
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

void Server::OnDrained(Conn& conn, uint64_t write_start_ns) {
  if (!conn.pending_trace.valid()) return;
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

}  // namespace rc::net
