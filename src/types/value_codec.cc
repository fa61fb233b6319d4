#include "types/value_codec.h"

namespace beas {

namespace {

/// Encoded value tags. Deliberately not TypeId: the byte formats must
/// stay stable even if the in-memory enum is reordered.
enum class ValueTag : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kDate = 4,
};

}  // namespace

void WriteValue(ByteSink* sink, const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      sink->PutU8(static_cast<uint8_t>(ValueTag::kNull));
      return;
    case TypeId::kInt64:
      sink->PutU8(static_cast<uint8_t>(ValueTag::kInt64));
      sink->PutI64(v.AsInt64());
      return;
    case TypeId::kDouble:
      sink->PutU8(static_cast<uint8_t>(ValueTag::kDouble));
      sink->PutDouble(v.AsDouble());
      return;
    case TypeId::kString:
      // AsString decodes dictionary-backed values, so both string
      // representations encode identically.
      sink->PutU8(static_cast<uint8_t>(ValueTag::kString));
      sink->PutString(v.AsString());
      return;
    case TypeId::kDate:
      sink->PutU8(static_cast<uint8_t>(ValueTag::kDate));
      sink->PutI64(v.AsDate());
      return;
  }
  sink->PutU8(static_cast<uint8_t>(ValueTag::kNull));
}

Value ReadValue(ByteReader* r) {
  switch (static_cast<ValueTag>(r->GetU8())) {
    case ValueTag::kNull:
      return Value::Null();
    case ValueTag::kInt64:
      return Value::Int64(r->GetI64());
    case ValueTag::kDouble:
      return Value::Double(r->GetDouble());
    case ValueTag::kString:
      return Value::String(r->GetString());
    case ValueTag::kDate:
      return Value::Date(r->GetI64());
  }
  r->ok_ = false;
  return Value::Null();
}

void WriteRow(ByteSink* sink, const Row& row) {
  sink->PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) WriteValue(sink, v);
}

Result<Row> ReadRow(ByteReader* r) {
  uint32_t arity = r->GetU32();
  if (!r->ok() || arity > r->remaining()) {
    return Status::IoError("truncated row header");
  }
  Row row;
  row.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) row.push_back(ReadValue(r));
  if (!r->ok()) return Status::IoError("truncated or unknown row value");
  return row;
}

bool ReadTypeId(ByteReader* r, TypeId* out) {
  uint8_t byte = r->GetU8();
  if (!r->ok() || byte > static_cast<uint8_t>(TypeId::kDate)) return false;
  *out = static_cast<TypeId>(byte);
  return true;
}

}  // namespace beas
