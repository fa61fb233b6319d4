#ifndef BEAS_NET_PROTOCOL_H_
#define BEAS_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/query_result.h"
#include "service/beas_service.h"
#include "types/tuple.h"

namespace beas {
namespace net {

/// \brief The BEAS wire protocol ("BNW1"): length-prefixed binary frames
/// over a byte stream, designed for pipelining — a client may have many
/// request frames in flight on one connection; responses carry the
/// request id they answer, in completion order.
///
/// Frame layout (all integers little-endian):
///
///     offset  size  field
///     0       4     magic "BNW1"
///     4       1     kind (FrameKind)
///     5       1     flags (reserved, 0)
///     6       2     reserved (0)
///     8       4     request_id
///     12      4     payload_len
///     16      ...   payload (payload_len bytes)
///
/// Payload fields and row values use the shared value codec
/// (types/value_codec.h); a row is a u16 arity and its values.
///
/// Every decode is bounds-checked: a frame that lies about its length, or
/// a payload that runs out of bytes mid-field, yields a typed error
/// (kCorruption / kInvalidArgument), never a crash — malformed input is
/// the expected case on a public port.
constexpr size_t kFrameHeaderSize = 16;
extern const char kFrameMagic[4];

/// Hard protocol ceiling on payload size; servers may configure a lower
/// one. A header that announces more than this is treated as garbage
/// framing (the connection cannot be resynchronized).
constexpr uint32_t kMaxWirePayload = 64u << 20;

enum class FrameKind : uint8_t {
  kQueryRequest = 1,   ///< payload: QueryRequest
  kInsertRequest = 2,  ///< payload: InsertRequest
  kPing = 3,           ///< empty payload; answered with an empty OK response
  kResponse = 0x81,    ///< payload: WireResponse
};

struct FrameHeader {
  FrameKind kind = FrameKind::kPing;
  uint8_t flags = 0;
  uint32_t request_id = 0;
  uint32_t payload_len = 0;
};

/// \brief A batched write over the wire (the SQL front end has no INSERT;
/// writes travel as typed rows and land in BeasService::InsertBatch).
struct InsertRequest {
  std::string table;
  std::vector<Row> rows;
};

/// \brief What a kResponse frame carries: a typed verdict plus, on
/// success, the serializable subset of the QueryResponse envelope (the
/// checker's full CoverageResult stays in-process by design).
struct WireResponse {
  /// The error taxonomy's wire leg: the StatusCode enum value travels as
  /// one byte; StatusCodeName/StatusCodeToHttp derive the other two legs.
  Status status;
  QueryResponse response;      ///< valid when status.ok()
  uint64_t rows_inserted = 0;  ///< insert acks only
};

/// \name Frame header codec.
/// @{
void EncodeFrameHeader(const FrameHeader& header, uint8_t out[kFrameHeaderSize]);
/// kCorruption on bad magic or an over-ceiling payload length; the caller
/// must treat that as an unrecoverable framing error for the connection.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t len);
/// @}

/// \name Full-frame encoders (header + payload, ready to write).
/// @{
std::string EncodeQueryRequestFrame(uint32_t request_id,
                                    const QueryRequest& request);
std::string EncodeInsertRequestFrame(uint32_t request_id,
                                     const InsertRequest& request);
std::string EncodePingFrame(uint32_t request_id);
/// A response whose payload would exceed kMaxWirePayload encodes as a
/// kInvalidArgument error response instead.
std::string EncodeResponseFrame(uint32_t request_id,
                                const WireResponse& response);
/// @}

/// \name Payload decoders (bounds-checked; typed errors on malformed
/// input). QueryRequest::options.cancel does not serialize and decodes
/// to null — the server wires its own per-connection token.
/// @{
Result<QueryRequest> DecodeQueryRequest(const uint8_t* payload, size_t len);
Result<InsertRequest> DecodeInsertRequest(const uint8_t* payload, size_t len);
Result<WireResponse> DecodeResponse(const uint8_t* payload, size_t len);
/// @}

}  // namespace net
}  // namespace beas

#endif  // BEAS_NET_PROTOCOL_H_
