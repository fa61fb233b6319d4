#ifndef BEAS_TYPES_VALUE_CODEC_H_
#define BEAS_TYPES_VALUE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/result.h"
#include "types/tuple.h"
#include "types/value.h"

// Every BEAS byte format (BNW1 frames, WAL records, segment payloads and
// result-cache keys) writes fixed-width integers verbatim, so the
// in-memory and on-disk/on-wire layouts coincide only on little-endian
// hosts. The hashing code relies on the same assumption.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "BEAS byte formats require a little-endian host");

namespace beas {

/// \brief Append-only little-endian byte sink: the one encoder behind
/// BNW1 payloads, WAL records, segment payloads and result-cache keys.
class ByteSink {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  /// Length-prefixed bytes (u32 length).
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  void PutRaw(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// \brief Bounds-checked reader over a byte range (a wire payload, a WAL
/// record body, a mapped segment payload). Reads past the end latch
/// `ok() == false` and return zeros; callers check ok() once after a
/// parse instead of per field.
class ByteReader {
 public:
  ByteReader(const char* data, size_t len) : p_(data), end_(data + len) {}
  ByteReader(const uint8_t* data, size_t len)
      : ByteReader(reinterpret_cast<const char*>(data), len) {}

  uint8_t GetU8() { return Get<uint8_t>(); }
  uint16_t GetU16() { return Get<uint16_t>(); }
  uint32_t GetU32() { return Get<uint32_t>(); }
  uint64_t GetU64() { return Get<uint64_t>(); }
  int64_t GetI64() { return Get<int64_t>(); }
  double GetDouble() { return Get<double>(); }
  std::string GetString() {
    // The length itself is untrusted: check it against what is actually
    // left before allocating.
    uint32_t len = GetU32();
    if (!ok_ || remaining() < len) {
      ok_ = false;
      return {};
    }
    std::string s(p_, len);
    p_ += len;
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  friend Value ReadValue(ByteReader* r);  // latches on an unknown tag

  template <typename T>
  T Get() {
    T v{};
    if (!ok_ || remaining() < sizeof(v)) {
      ok_ = false;
      return v;
    }
    std::memcpy(&v, p_, sizeof(v));
    p_ += sizeof(v);
    return v;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

/// \name Value / row codec.
///
/// A value is one tag byte (0 null, 1 int64, 2 double, 3 string, 4 date)
/// and its payload: nothing, i64, f64, u32-length-prefixed bytes, i64.
/// Strings always encode as their bytes, never as dictionary codes, so an
/// encoded value is self-contained and decodes inline (restore paths
/// re-canonicalize into a dictionary afterwards).
///
/// ReadValue latches `!r->ok()` on a truncated range or an unknown tag,
/// like every ByteReader read; each boundary maps that to its own error.
/// @{
void WriteValue(ByteSink* sink, const Value& v);
Value ReadValue(ByteReader* r);

/// A row is a u32 arity followed by its values. ReadRow fails with
/// kIoError.
void WriteRow(ByteSink* sink, const Row& row);
Result<Row> ReadRow(ByteReader* r);
/// @}

/// Reads one TypeId byte. False when the byte is missing (`r` latches
/// !ok()) or names no TypeId (above kDate).
bool ReadTypeId(ByteReader* r, TypeId* out);

}  // namespace beas

#endif  // BEAS_TYPES_VALUE_CODEC_H_
