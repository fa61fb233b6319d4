#ifndef BEAS_TYPES_VALUE_H_
#define BEAS_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "types/data_type.h"

namespace beas {

class StringDict;

/// \brief A typed scalar: the unit of data flowing through the engine.
///
/// Values are small tagged unions. Numeric payloads share storage. NULL
/// compares equal to NULL for grouping/index purposes and orders before
/// all non-NULL values; SQL three-valued logic is handled by the
/// expression evaluator, which treats comparisons against NULL as
/// not-satisfied.
///
/// Strings have two interchangeable representations:
///  * inline (std::string payload) — literals, parameters, ad-hoc values;
///  * dictionary-backed ({StringDict*, uint32 code}) — values interned by
///    their table's dictionary at ingest (see storage/string_dict.h).
/// The two are semantically indistinguishable: AsString / Compare /
/// Hash / ToString agree byte-for-byte, so callers never branch on the
/// representation. What changes is the cost model — dictionary-backed
/// values copy a pointer + code instead of bytes, hash via one array
/// read, and compare equal/unequal by code against values of the same
/// dictionary. Ordering comparisons always decode to bytes (codes are
/// not order-preserving).
class Value {
 public:
  /// Constructs a NULL value.
  Value() : type_(TypeId::kNull), i_(0), d_(0) {}

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) {
    Value out;
    out.type_ = TypeId::kInt64;
    out.i_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = TypeId::kDouble;
    out.d_ = v;
    return out;
  }
  static Value String(std::string v) {
    Value out;
    out.type_ = TypeId::kString;
    out.s_ = std::move(v);
    return out;
  }
  /// Constructs a dictionary-backed STRING: `code` must be a live code of
  /// `dict`, which must outlive the value (table dictionaries live as long
  /// as their TableHeap).
  static Value DictString(const StringDict* dict, uint32_t code) {
    Value out;
    out.type_ = TypeId::kString;
    out.dict_ = dict;
    out.i_ = code;
    return out;
  }
  /// Constructs a DATE from the int64 YYYYMMDD encoding.
  static Value Date(int64_t yyyymmdd) {
    Value out;
    out.type_ = TypeId::kDate;
    out.i_ = yyyymmdd;
    return out;
  }
  /// Parses "YYYY-MM-DD" into a DATE value.
  static Result<Value> DateFromString(const std::string& s);

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  /// \name Accessors; callers must check type() first.
  /// @{
  int64_t AsInt64() const { return i_; }
  double AsDouble() const { return type_ == TypeId::kDouble ? d_ : static_cast<double>(i_); }
  /// The string bytes; for dictionary-backed values this is a reference
  /// into the dictionary (stable for the table's lifetime), no copy.
  const std::string& AsString() const;
  int64_t AsDate() const { return i_; }
  /// @}

  /// \name Dictionary representation (kString only).
  /// @{
  /// The backing dictionary, or nullptr for inline strings / non-strings.
  const StringDict* dict() const { return dict_; }
  /// The dictionary code; meaningful only when dict() != nullptr.
  uint32_t dict_code() const { return static_cast<uint32_t>(i_); }
  /// @}

  /// \brief Coerces this value to `target` type if implicitly allowed
  /// (INT->DOUBLE, STRING->DATE, INT->DATE).
  Result<Value> CoerceTo(TypeId target) const;

  /// \brief Total order across values of the same comparable family.
  ///
  /// NULL < everything; INT and DOUBLE compare numerically with each
  /// other; DATE compares with DATE (and INT, sharing the encoding).
  /// Returns <0, 0, >0. Comparing STRING with a numeric type is a
  /// programming error caught by the evaluator before reaching here;
  /// this function falls back to type-tag order for heterogeneity.
  int Compare(const Value& other) const;

  /// \brief Equality, semantically identical to Compare() == 0 but O(1)
  /// for two values of the same dictionary (interning deduplicates, so
  /// equal codes <=> equal bytes).
  bool Equals(const Value& other) const {
    if (dict_ != nullptr && dict_ == other.dict_) return i_ == other.i_;
    return Compare(other) == 0;
  }

  bool operator==(const Value& other) const { return Equals(other); }
  bool operator!=(const Value& other) const { return !Equals(other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// \brief Hash consistent with operator== (INT/DOUBLE/DATE with equal
  /// numeric value may hash differently across type families; the engine
  /// always hashes values of one declared column type together).
  /// Dictionary-backed strings serve the byte hash precomputed at intern
  /// time — one array read, no byte hashing — and hash identically to the
  /// inline representation of the same bytes.
  uint64_t Hash() const;

  /// \brief Renders for display: NULL, 42, 3.14, 'text', 2016-03-01.
  std::string ToString() const;

  /// \brief Renders for CSV (no quotes added; dates as YYYY-MM-DD).
  std::string ToCsv() const;

 private:
  TypeId type_;
  int64_t i_;  ///< int/date payload; dictionary code for dict-backed strings
  double d_;
  std::string s_;  ///< inline string payload (empty when dict-backed)
  const StringDict* dict_ = nullptr;  ///< non-null <=> dictionary-backed
};

/// \brief Value::Hash of the DOUBLE `d`: a double equal to an integer
/// hashes like that INT64, so INT 7 and DOUBLE 7.0 collide as they must.
uint64_t HashDoubleValue(double d);

/// \brief A key made of several values (e.g. the X-projection probed into an
/// access-constraint index).
using ValueVec = std::vector<Value>;

/// \brief Hash functor for ValueVec keys in unordered containers.
struct ValueVecHash {
  size_t operator()(const ValueVec& v) const {
    uint64_t seed = kValueVecHashSeed;
    for (const Value& x : v) HashCombine(&seed, x.Hash());
    return static_cast<size_t>(seed);
  }
};

/// \brief Equality functor for ValueVec keys in unordered containers.
struct ValueVecEq {
  bool operator()(const ValueVec& a, const ValueVec& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
};

/// \brief Lexicographic comparison of two value vectors.
int CompareValueVec(const ValueVec& a, const ValueVec& b);

/// \brief Renders a vector of values as "(v1, v2, ...)".
std::string ValueVecToString(const ValueVec& v);

}  // namespace beas

#endif  // BEAS_TYPES_VALUE_H_
