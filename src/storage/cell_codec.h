#ifndef BEAS_STORAGE_CELL_CODEC_H_
#define BEAS_STORAGE_CELL_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "storage/string_dict.h"
#include "types/data_type.h"
#include "types/value.h"

namespace beas {

/// \brief One packed 8-byte value, read by its column's declared type:
/// an INT or DATE payload, the raw bits of a DOUBLE (raw, so -0.0 and NaN
/// payloads round-trip), or a code of the table's string dictionary
/// (codes never change for the life of the heap).
///
/// A packed row of `arity` columns — a table-heap slot, an AC-index key
/// or entry — is `arity` payload cells followed by ⌈arity/64⌉ NULL-mask
/// cells: bit j of mask cell j/64 set means column j is NULL, and its
/// payload cell is then 0. The table heap and the AC index share this
/// codec, so the index copies heap cells verbatim.
using Cell = uint64_t;

inline Cell DoubleCell(double d) {
  Cell c;
  std::memcpy(&c, &d, sizeof(c));
  return c;
}

inline double CellDouble(Cell c) {
  double d;
  std::memcpy(&d, &c, sizeof(d));
  return d;
}

/// Cells per packed row of `arity` columns: payloads plus NULL masks.
inline size_t CellStride(size_t arity) { return arity + (arity + 63) / 64; }

/// True when column `j` of the packed row `cells` (of `arity` columns) is
/// NULL.
inline bool CellIsNull(const Cell* cells, size_t arity, size_t j) {
  return (cells[arity + j / 64] >> (j % 64)) & 1;
}

/// Marks column `j` of the packed row `cells` NULL (payload 0).
inline void SetCellNull(Cell* cells, size_t arity, size_t j) {
  cells[j] = 0;
  cells[arity + j / 64] |= Cell{1} << (j % 64);
}

/// The non-NULL cell `c` of a column of type `type` as a Value of that
/// type; a STRING decodes to a value backed by `dict`.
inline Value DecodeCell(TypeId type, Cell c, const StringDict* dict) {
  switch (type) {
    case TypeId::kInt64:
      return Value::Int64(static_cast<int64_t>(c));
    case TypeId::kDate:
      return Value::Date(static_cast<int64_t>(c));
    case TypeId::kDouble:
      return Value::Double(CellDouble(c));
    case TypeId::kString:
      return Value::DictString(dict, static_cast<uint32_t>(c));
    default:
      return Value::Null();
  }
}

/// Stored-value encoding of the non-NULL `v` into a column of type
/// `type`: INT and DATE columns take INT or DATE values, a DOUBLE column
/// takes any numeric value, a STRING column takes a string of `dict`
/// (its code) or an inline string `dict` holds. False when `v` cannot be
/// stored there: a string absent from `dict`, or a value of another type
/// family.
inline bool EncodeStoredCell(TypeId type, const Value& v,
                             const StringDict* dict, Cell* cell) {
  switch (type) {
    case TypeId::kInt64:
    case TypeId::kDate:
      if (v.type() != TypeId::kInt64 && v.type() != TypeId::kDate) {
        return false;
      }
      *cell = static_cast<Cell>(v.AsInt64());
      return true;
    case TypeId::kDouble:
      if (v.type() == TypeId::kString || v.is_null()) return false;
      *cell = DoubleCell(v.AsDouble());
      return true;
    case TypeId::kString: {
      if (dict == nullptr || v.type() != TypeId::kString) return false;
      if (v.dict() == dict) {
        *cell = v.dict_code();
        return true;
      }
      int64_t code = dict->FindWithHash(v.AsString(), v.Hash());
      if (code < 0) return false;
      *cell = static_cast<Cell>(code);
      return true;
    }
    default:
      return false;
  }
}

/// \name Arena growth, shared by the heap's and the index's cell arenas.
/// @{
/// Grows `v` to `n` elements with half-size headroom, so appends stay
/// amortized O(1) without doubling an arena's footprint.
template <typename T>
void GrowTo(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) v->reserve(std::max(n, v->capacity() * 3 / 2 + 16));
  v->resize(n);
}

/// The bytes `v` holds (its capacity), for exact memory gauges.
template <typename T>
uint64_t CapacityBytes(const std::vector<T>& v) {
  return static_cast<uint64_t>(v.capacity()) * sizeof(T);
}
/// @}

}  // namespace beas

#endif  // BEAS_STORAGE_CELL_CODEC_H_
