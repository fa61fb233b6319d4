#include "net/protocol.h"

#include <cstring>

#include "types/value_codec.h"

namespace beas {
namespace net {

const char kFrameMagic[4] = {'B', 'N', 'W', '1'};

namespace {

Status Truncated(const char* what) {
  return Status::Corruption(std::string("truncated ") + what + " payload");
}

// BNW1 rows carry a u16 arity, then the shared value codec's values.
void PutWireRow(ByteSink* out, const Row& row) {
  out->PutU16(static_cast<uint16_t>(row.size()));
  for (const Value& v : row) WriteValue(out, v);
}

bool ReadWireRow(ByteReader* in, Row* out) {
  uint16_t n = in->GetU16();
  if (!in->ok() || n > in->remaining()) return false;
  out->reserve(n);
  for (uint16_t i = 0; i < n; ++i) out->push_back(ReadValue(in));
  return in->ok();
}

/// A frame under construction starts with a blank header that
/// FinishFrame patches in place, so the payload is never copied.
ByteSink StartFrame() {
  static const uint8_t kBlankHeader[kFrameHeaderSize] = {};
  ByteSink frame;
  frame.PutRaw(kBlankHeader, kFrameHeaderSize);
  return frame;
}

std::string FinishFrame(FrameKind kind, uint32_t request_id, ByteSink* frame) {
  std::string bytes = frame->Take();
  FrameHeader header;
  header.kind = kind;
  header.request_id = request_id;
  header.payload_len = static_cast<uint32_t>(bytes.size() - kFrameHeaderSize);
  EncodeFrameHeader(header, reinterpret_cast<uint8_t*>(&bytes[0]));
  return bytes;
}

// QueryResponse flag bits (response payload byte 1 when OK).
constexpr uint8_t kFlagCacheHit = 1u << 0;
constexpr uint8_t kFlagCacheable = 1u << 1;
constexpr uint8_t kFlagDegraded = 1u << 2;
constexpr uint8_t kFlagTimedOut = 1u << 3;
constexpr uint8_t kFlagCovered = 1u << 4;
constexpr uint8_t kFlagUnsatisfiable = 1u << 5;
constexpr uint8_t kFlagApproxExact = 1u << 6;
constexpr uint8_t kFlagResultCacheHit = 1u << 7;

}  // namespace

void EncodeFrameHeader(const FrameHeader& header,
                       uint8_t out[kFrameHeaderSize]) {
  // Integers are little-endian, like the host (see types/value_codec.h).
  std::memcpy(out, kFrameMagic, 4);
  out[4] = static_cast<uint8_t>(header.kind);
  out[5] = header.flags;
  out[6] = 0;
  out[7] = 0;
  std::memcpy(out + 8, &header.request_id, 4);
  std::memcpy(out + 12, &header.payload_len, 4);
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t len) {
  if (len < kFrameHeaderSize) {
    return Status::Corruption("short frame header");
  }
  if (std::memcmp(data, kFrameMagic, 4) != 0) {
    return Status::Corruption("bad frame magic");
  }
  FrameHeader header;
  header.kind = static_cast<FrameKind>(data[4]);
  header.flags = data[5];
  std::memcpy(&header.request_id, data + 8, 4);
  std::memcpy(&header.payload_len, data + 12, 4);
  if (header.payload_len > kMaxWirePayload) {
    return Status::Corruption("frame payload length " +
                              std::to_string(header.payload_len) +
                              " exceeds the protocol ceiling");
  }
  switch (header.kind) {
    case FrameKind::kQueryRequest:
    case FrameKind::kInsertRequest:
    case FrameKind::kPing:
    case FrameKind::kResponse:
      break;
    default:
      return Status::Corruption("unknown frame kind " +
                                std::to_string(data[4]));
  }
  return header;
}

std::string EncodeQueryRequestFrame(uint32_t request_id,
                                    const QueryRequest& request) {
  ByteSink frame = StartFrame();
  frame.PutU8(static_cast<uint8_t>(request.mode));
  frame.PutU64(request.approx_budget);
  frame.PutI64(request.options.timeout_millis);
  frame.PutU64(request.options.fetch_budget);
  frame.PutDouble(request.options.min_eta);
  frame.PutString(request.tenant);
  frame.PutString(request.sql);
  return FinishFrame(FrameKind::kQueryRequest, request_id, &frame);
}

Result<QueryRequest> DecodeQueryRequest(const uint8_t* payload, size_t len) {
  ByteReader in(payload, len);
  QueryRequest request;
  uint8_t mode = in.GetU8();
  request.approx_budget = in.GetU64();
  request.options.timeout_millis = in.GetI64();
  request.options.fetch_budget = in.GetU64();
  request.options.min_eta = in.GetDouble();
  request.tenant = in.GetString();
  request.sql = in.GetString();
  if (!in.ok() || !in.AtEnd()) return Truncated("query request");
  if (mode > static_cast<uint8_t>(QueryMode::kCheckOnly)) {
    return Status::InvalidArgument("unknown query mode byte " +
                                   std::to_string(mode));
  }
  request.mode = static_cast<QueryMode>(mode);
  return request;
}

std::string EncodeInsertRequestFrame(uint32_t request_id,
                                     const InsertRequest& request) {
  ByteSink frame = StartFrame();
  frame.PutString(request.table);
  frame.PutU32(static_cast<uint32_t>(request.rows.size()));
  for (const Row& row : request.rows) PutWireRow(&frame, row);
  return FinishFrame(FrameKind::kInsertRequest, request_id, &frame);
}

Result<InsertRequest> DecodeInsertRequest(const uint8_t* payload, size_t len) {
  ByteReader in(payload, len);
  InsertRequest request;
  request.table = in.GetString();
  uint32_t nrows = in.GetU32();
  if (!in.ok()) return Truncated("insert request");
  // Reserve against the bytes actually present, not the claimed count: a
  // row is at least 2 bytes, so a count the payload cannot hold is lies.
  if (static_cast<uint64_t>(nrows) * 2 > len) {
    return Status::Corruption("insert row count exceeds payload size");
  }
  request.rows.resize(nrows);
  for (Row& row : request.rows) {
    if (!ReadWireRow(&in, &row)) return Truncated("insert request");
  }
  if (!in.AtEnd()) return Truncated("insert request");
  return request;
}

std::string EncodePingFrame(uint32_t request_id) {
  ByteSink frame = StartFrame();
  return FinishFrame(FrameKind::kPing, request_id, &frame);
}

std::string EncodeResponseFrame(uint32_t request_id,
                                const WireResponse& response) {
  ByteSink frame = StartFrame();
  frame.PutU8(static_cast<uint8_t>(response.status.code()));
  if (!response.status.ok()) {
    frame.PutString(response.status.message());
    return FinishFrame(FrameKind::kResponse, request_id, &frame);
  }
  const QueryResponse& r = response.response;
  uint8_t flags = 0;
  if (r.cache_hit) flags |= kFlagCacheHit;
  if (r.cacheable) flags |= kFlagCacheable;
  if (r.degraded) flags |= kFlagDegraded;
  if (r.timed_out) flags |= kFlagTimedOut;
  if (r.covered) flags |= kFlagCovered;
  if (r.unsatisfiable) flags |= kFlagUnsatisfiable;
  if (r.approx_exact) flags |= kFlagApproxExact;
  if (r.result_cache_hit) flags |= kFlagResultCacheHit;
  frame.PutU8(flags);
  frame.PutDouble(r.eta);
  frame.PutU64(r.template_hash);
  frame.PutU8(static_cast<uint8_t>(r.decision.mode));
  frame.PutU64(r.decision.deduced_bound);
  frame.PutString(r.decision.explanation);
  frame.PutString(r.reason);
  frame.PutU64(r.approx_budget);
  frame.PutU64(r.tuples_fetched);
  frame.PutU64(response.rows_inserted);
  frame.PutU16(static_cast<uint16_t>(r.result.column_names.size()));
  for (size_t i = 0; i < r.result.column_names.size(); ++i) {
    frame.PutString(r.result.column_names[i]);
    TypeId type = i < r.result.column_types.size() ? r.result.column_types[i]
                                                   : TypeId::kNull;
    frame.PutU8(static_cast<uint8_t>(type));
  }
  frame.PutU32(static_cast<uint32_t>(r.result.rows.size()));
  for (const Row& row : r.result.rows) PutWireRow(&frame, row);
  size_t payload_len = frame.size() - kFrameHeaderSize;
  if (payload_len > kMaxWirePayload) {
    // Every decoder would reject the header as garbage framing; answer
    // with a typed error the client can read instead.
    WireResponse error;
    error.status = Status::InvalidArgument(
        "response payload of " + std::to_string(payload_len) +
        " bytes exceeds the protocol ceiling of " +
        std::to_string(kMaxWirePayload));
    return EncodeResponseFrame(request_id, error);
  }
  return FinishFrame(FrameKind::kResponse, request_id, &frame);
}

Result<WireResponse> DecodeResponse(const uint8_t* payload, size_t len) {
  ByteReader in(payload, len);
  WireResponse response;
  uint8_t code = in.GetU8();
  if (!in.ok()) return Truncated("response");
  if (code > static_cast<uint8_t>(StatusCode::kCorruption)) {
    return Status::Corruption("unknown status code byte " +
                              std::to_string(code));
  }
  if (code != static_cast<uint8_t>(StatusCode::kOk)) {
    std::string message = in.GetString();
    if (!in.ok() || !in.AtEnd()) return Truncated("response");
    response.status = Status(static_cast<StatusCode>(code),
                             std::move(message));
    return response;
  }
  QueryResponse& r = response.response;
  uint8_t flags = in.GetU8();
  r.eta = in.GetDouble();
  r.template_hash = in.GetU64();
  uint8_t mode = in.GetU8();
  r.decision.deduced_bound = in.GetU64();
  r.decision.explanation = in.GetString();
  r.reason = in.GetString();
  r.approx_budget = in.GetU64();
  r.tuples_fetched = in.GetU64();
  response.rows_inserted = in.GetU64();
  if (!in.ok()) return Truncated("response");
  r.cache_hit = (flags & kFlagCacheHit) != 0;
  r.cacheable = (flags & kFlagCacheable) != 0;
  r.degraded = (flags & kFlagDegraded) != 0;
  r.timed_out = (flags & kFlagTimedOut) != 0;
  r.covered = (flags & kFlagCovered) != 0;
  r.unsatisfiable = (flags & kFlagUnsatisfiable) != 0;
  r.approx_exact = (flags & kFlagApproxExact) != 0;
  r.result_cache_hit = (flags & kFlagResultCacheHit) != 0;
  if (mode > static_cast<uint8_t>(
                 BeasSession::ExecutionDecision::Mode::kConventional)) {
    return Status::Corruption("unknown decision mode byte " +
                              std::to_string(mode));
  }
  r.decision.mode = static_cast<BeasSession::ExecutionDecision::Mode>(mode);
  uint16_t ncols = in.GetU16();
  if (!in.ok() || ncols > in.remaining()) return Truncated("response");
  r.result.column_names.reserve(ncols);
  r.result.column_types.reserve(ncols);
  for (uint16_t i = 0; i < ncols; ++i) {
    r.result.column_names.push_back(in.GetString());
    TypeId type;
    if (!ReadTypeId(&in, &type)) {
      return in.ok() ? Status::Corruption("unknown column type byte")
                     : Truncated("response");
    }
    r.result.column_types.push_back(type);
  }
  uint32_t nrows = in.GetU32();
  if (!in.ok()) return Truncated("response");
  if (static_cast<uint64_t>(nrows) * 2 > len) {
    return Status::Corruption("response row count exceeds payload size");
  }
  r.result.rows.resize(nrows);
  for (Row& row : r.result.rows) {
    if (!ReadWireRow(&in, &row)) return Truncated("response");
  }
  if (!in.AtEnd()) return Truncated("response");
  return response;
}

}  // namespace net
}  // namespace beas
