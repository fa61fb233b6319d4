#include "types/value.h"

#include <cmath>

#include "common/string_util.h"
#include "storage/string_dict.h"

namespace beas {

const std::string& Value::AsString() const {
  return dict_ != nullptr ? dict_->str(static_cast<uint32_t>(i_)) : s_;
}

Result<Value> Value::DateFromString(const std::string& s) {
  BEAS_ASSIGN_OR_RETURN(int64_t enc, ParseDate(s));
  return Value::Date(enc);
}

Result<Value> Value::CoerceTo(TypeId target) const {
  if (type_ == target) return *this;
  if (type_ == TypeId::kNull) return Value::Null();
  switch (target) {
    case TypeId::kDouble:
      if (type_ == TypeId::kInt64) return Value::Double(static_cast<double>(i_));
      break;
    case TypeId::kDate:
      if (type_ == TypeId::kString) return DateFromString(AsString());
      if (type_ == TypeId::kInt64) {
        if (!IsValidDateEncoding(i_)) {
          return Status::TypeError("integer " + std::to_string(i_) +
                                   " is not a valid YYYYMMDD date");
        }
        return Value::Date(i_);
      }
      break;
    case TypeId::kInt64:
      if (type_ == TypeId::kDate) return Value::Int64(i_);
      break;
    default:
      break;
  }
  return Status::TypeError(std::string("cannot coerce ") + TypeIdToString(type_) +
                           " to " + TypeIdToString(target));
}

namespace {

/// Numeric family: INT64, DOUBLE, DATE (DATE shares the int encoding).
bool IsNumericFamily(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kDate;
}

}  // namespace

int Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (IsNumericFamily(type_) && IsNumericFamily(other.type_)) {
    if (type_ == TypeId::kDouble || other.type_ == TypeId::kDouble) {
      double a = AsDouble();
      double b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    if (i_ < other.i_) return -1;
    if (i_ > other.i_) return 1;
    return 0;
  }
  if (type_ == TypeId::kString && other.type_ == TypeId::kString) {
    // Same dictionary: equal codes <=> equal bytes (interning dedups).
    // Codes carry no order, so distinct strings compare their bytes.
    if (dict_ != nullptr && dict_ == other.dict_ && i_ == other.i_) return 0;
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Heterogeneous (string vs numeric): order by type tag for stability.
  return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
}

uint64_t HashDoubleValue(double d) {
  // Hash doubles that equal an integer identically to that integer so
  // mixed INT/DOUBLE group keys behave (rare in practice).
  double r = std::round(d);
  if (r == d && std::abs(d) < 9.0e18) {
    return HashInt64(static_cast<uint64_t>(static_cast<int64_t>(r)));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return HashInt64(bits);
}

uint64_t Value::Hash() const {
  switch (type_) {
    case TypeId::kNull:
      return kNullValueHash;
    case TypeId::kInt64:
    case TypeId::kDate:
      return HashInt64(static_cast<uint64_t>(i_));
    case TypeId::kDouble:
      return HashDoubleValue(d_);
    case TypeId::kString:
      // Dictionary-backed: the byte hash computed once at intern time.
      if (dict_ != nullptr) return dict_->hash(static_cast<uint32_t>(i_));
      return HashString(s_);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kInt64:
      return std::to_string(i_);
    case TypeId::kDouble: {
      std::string s = StringPrintf("%.6g", d_);
      return s;
    }
    case TypeId::kString:
      return "'" + AsString() + "'";
    case TypeId::kDate:
      return FormatDate(i_);
  }
  return "?";
}

std::string Value::ToCsv() const {
  if (type_ == TypeId::kString) return AsString();
  if (type_ == TypeId::kNull) return "";
  return ToString();
}

int CompareValueVec(const ValueVec& a, const ValueVec& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

std::string ValueVecToString(const ValueVec& v) {
  std::string out = "(";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += v[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace beas
