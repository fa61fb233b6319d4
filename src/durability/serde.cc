#include "durability/serde.h"

namespace beas {
namespace durability {

void WriteSchema(ByteSink* sink, const Schema& schema) {
  sink->PutU32(static_cast<uint32_t>(schema.NumColumns()));
  for (const Column& c : schema.columns()) {
    sink->PutString(c.name);
    sink->PutU8(static_cast<uint8_t>(c.type));
  }
}

Result<Schema> ReadSchema(ByteReader* r) {
  uint32_t ncols = r->GetU32();
  if (!r->ok() || ncols > r->remaining()) {
    return Status::IoError("truncated schema header");
  }
  std::vector<Column> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    std::string name = r->GetString();
    TypeId type;
    if (!ReadTypeId(r, &type)) {
      return Status::IoError(r->ok() ? "unknown schema column type"
                                     : "truncated schema column");
    }
    cols.emplace_back(std::move(name), type);
  }
  return Schema(std::move(cols));
}

void WriteConstraint(ByteSink* sink, const AccessConstraint& c) {
  sink->PutString(c.name);
  sink->PutString(c.table);
  sink->PutU32(static_cast<uint32_t>(c.x_attrs.size()));
  for (const std::string& a : c.x_attrs) sink->PutString(a);
  sink->PutU32(static_cast<uint32_t>(c.y_attrs.size()));
  for (const std::string& a : c.y_attrs) sink->PutString(a);
  sink->PutU64(c.limit_n);
}

Result<AccessConstraint> ReadConstraint(ByteReader* r) {
  AccessConstraint c;
  c.name = r->GetString();
  c.table = r->GetString();
  uint32_t nx = r->GetU32();
  if (!r->ok() || nx > r->remaining()) {
    return Status::IoError("truncated constraint");
  }
  for (uint32_t i = 0; i < nx; ++i) c.x_attrs.push_back(r->GetString());
  uint32_t ny = r->GetU32();
  if (!r->ok() || ny > r->remaining()) {
    return Status::IoError("truncated constraint");
  }
  for (uint32_t i = 0; i < ny; ++i) c.y_attrs.push_back(r->GetString());
  c.limit_n = r->GetU64();
  if (!r->ok()) return Status::IoError("truncated constraint");
  return c;
}

}  // namespace durability
}  // namespace beas
