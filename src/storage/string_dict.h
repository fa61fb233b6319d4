#ifndef BEAS_STORAGE_STRING_DICT_H_
#define BEAS_STORAGE_STRING_DICT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/hash.h"
#include "types/value.h"

namespace beas {

/// \brief A per-table append-only string dictionary: interns every string
/// value once at ingest and hands out stable dense uint32 codes.
///
/// This is the storage half of the dictionary-encoded string path. After
/// interning, the hot layers stop touching bytes:
///  * Value holds {dict, code} instead of an inline std::string, so
///    copying a string value copies a pointer and a code;
///  * hashing is an array read (the byte hash is computed once, at intern
///    time, and stored next to the string);
///  * equality of two values of the *same* dictionary is a code compare —
///    interning deduplicates, so distinct codes imply distinct bytes.
///
/// ## Ordering
///
/// Codes are assigned in first-appearance order and never change for the
/// lifetime of the dictionary, so `code(a) < code(b)` says nothing about
/// `a < b`. Codes serve hashing and equality only (the AC index of §3 is
/// a hash index); ordering consumers (ORDER BY, range predicates,
/// MIN/MAX) compare the bytes.
///
/// ## Byte-exactness
///
/// The dictionary stores std::string verbatim — embedded NUL bytes and
/// the empty string round-trip exactly, and the intern table compares
/// full (length, bytes), never C strings.
///
/// ## Thread-safety
///
/// Same single-writer/multi-reader contract as the owning TableHeap:
/// Intern mutates and requires exclusive access; all const members are
/// safe from concurrent readers. Interned strings live in a deque, so
/// `str(code)` references stay valid across later Interns.
class StringDict {
 public:
  /// Sentinel used by encoded columns for SQL NULL (never a real code).
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;

  StringDict() : slots_(16, kNullCode), mask_(15) {}

  StringDict(const StringDict&) = delete;
  StringDict& operator=(const StringDict&) = delete;

  /// Returns the code of `s`, appending it if absent. Codes are dense,
  /// stable, and assigned in first-appearance order.
  uint32_t Intern(const std::string& s);

  /// Returns the code of `s`, or -1 if it was never interned. Hashes the
  /// bytes once.
  int64_t Find(const std::string& s) const {
    return FindWithHash(s, HashString(s));
  }

  /// Find with a caller-supplied byte hash (e.g. another dictionary's
  /// precomputed hash for the same bytes, or a Value::Hash already in
  /// hand) — performs zero byte hashing itself.
  int64_t FindWithHash(const std::string& s, uint64_t hash) const;

  /// The interned string for `code`. Reference stable across Interns.
  const std::string& str(uint32_t code) const { return strings_[code]; }

  /// The precomputed byte hash of `code` (== HashString(str(code))).
  uint64_t hash(uint32_t code) const { return hashes_[code]; }

  /// Number of distinct strings interned.
  size_t size() const { return strings_.size(); }

  /// \brief Resets this (empty) dictionary to a checkpointed state:
  /// `strings` in code order. Re-interning them assigns exactly code i to
  /// strings[i]. Errors if the dictionary is non-empty.
  Status RestoreFrom(std::vector<std::string> strings);

  /// Rough memory footprint (strings + hash/slot tables). O(1): string
  /// bytes are accumulated at intern time, so monitoring surfaces can
  /// poll this without walking the dictionary.
  uint64_t ApproxBytes() const {
    return string_bytes_ + hashes_.capacity() * sizeof(uint64_t) +
           slots_.capacity() * sizeof(uint32_t);
  }

 private:
  void Grow();

  std::deque<std::string> strings_;  ///< code -> bytes (stable addresses)
  std::vector<uint64_t> hashes_;    ///< code -> precomputed byte hash
  std::vector<uint32_t> slots_;     ///< open addressing; kNullCode = empty
  size_t mask_;
  uint64_t string_bytes_ = 0;  ///< Σ per-string footprint, kept by Intern
};

/// \brief One column of a columnar batch, in one of two representations:
///
///  * generic — a Value vector (any type, any string representation);
///  * encoded — a uint32 code vector over one StringDict, with
///    StringDict::kNullCode standing for SQL NULL.
///
/// The encoded form is what makes string gathers cheap: the vectorized
/// executor moves 4-byte codes where the generic form moves Values, and
/// folds precomputed dictionary hashes where the generic form calls
/// Value::Hash. `At` and `HashAt` erase the difference for consumers that
/// don't care (materializing a dictionary-backed Value is pointer + code,
/// no byte copy), and both representations hash and compare identically —
/// an encoded column is bit-compatible with its materialized twin.
struct BatchColumn {
  std::vector<Value> values;    ///< generic payload (when dict == nullptr)
  std::vector<uint32_t> codes;  ///< encoded payload (when dict != nullptr)
  const StringDict* dict = nullptr;

  bool encoded() const { return dict != nullptr; }

  size_t size() const { return encoded() ? codes.size() : values.size(); }

  /// Row `r` as a Value (dictionary-backed when encoded, no byte copy).
  Value At(size_t r) const {
    if (!encoded()) return values[r];
    uint32_t code = codes[r];
    return code == StringDict::kNullCode ? Value::Null()
                                         : Value::DictString(dict, code);
  }

  /// Value::Hash of row `r` without materializing it.
  uint64_t HashAt(size_t r) const {
    if (!encoded()) return values[r].Hash();
    uint32_t code = codes[r];
    return code == StringDict::kNullCode ? kNullValueHash : dict->hash(code);
  }

  /// Equality of rows `a` and `b` within this column (NULL == NULL, the
  /// grouping/index convention carried by Value::Equals). O(1) when
  /// encoded.
  bool RowsEqual(size_t a, size_t b) const {
    if (encoded()) return codes[a] == codes[b];
    return values[a].Equals(values[b]);
  }
};

}  // namespace beas

#endif  // BEAS_STORAGE_STRING_DICT_H_
