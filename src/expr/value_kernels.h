#ifndef BEAS_EXPR_VALUE_KERNELS_H_
#define BEAS_EXPR_VALUE_KERNELS_H_

#include <cstdint>

#include "expr/expression.h"
#include "types/value.h"

namespace beas {

/// \brief The scalar comparison/arithmetic kernels shared by the tree
/// evaluator (evaluator.cc) and the compiled batch programs
/// (expr_program.cc). Keeping them in one place is what makes the two
/// paths' bit-identical guarantee structural rather than a convention:
/// a semantics change lands in both automatically.
///
/// The kernels are *total* (never error): type errors are the callers'
/// concern — the tree evaluator checks operand types at runtime and
/// raises Status; ExprProgram::Compile proves them statically and
/// refuses to compile anything that could error.

/// INT64, DOUBLE and DATE compare with each other (DATE shares the int
/// encoding).
inline bool NumericFamilyType(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kDate;
}

/// Runtime comparability of two non-NULL values (IN-list items that fail
/// this are "no match", never an error).
inline bool ComparableValues(const Value& a, const Value& b) {
  if (NumericFamilyType(a.type()) && NumericFamilyType(b.type())) return true;
  return a.type() == b.type();
}

inline Value BoolValueOf(bool b) { return Value::Int64(b ? 1 : 0); }

/// NULL-propagating comparison; callers guarantee the operands are
/// comparable (or NULL).
inline Value CompareValuesTotal(CompareOp op, const Value& l,
                                const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  int c = l.Compare(r);
  switch (op) {
    case CompareOp::kEq: return BoolValueOf(c == 0);
    case CompareOp::kNe: return BoolValueOf(c != 0);
    case CompareOp::kLt: return BoolValueOf(c < 0);
    case CompareOp::kLe: return BoolValueOf(c <= 0);
    case CompareOp::kGt: return BoolValueOf(c > 0);
    case CompareOp::kGe: return BoolValueOf(c >= 0);
  }
  return Value::Null();
}

/// NULL-propagating arithmetic; callers guarantee numeric operands
/// (INT64/DOUBLE) and, for kMod, integer operands. Division and modulo by
/// zero yield NULL (SQL), and so does an INT64 result that does not fit
/// (overflowing + - *, INT64_MIN / -1); x % -1 is 0.
inline Value ArithValuesTotal(ArithOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  bool use_double =
      l.type() == TypeId::kDouble || r.type() == TypeId::kDouble;
  if (op == ArithOp::kMod) {
    int64_t b = r.AsInt64();
    if (b == 0) return Value::Null();
    // INT64_MIN % -1 traps in hardware; every x % -1 is 0.
    return Value::Int64(b == -1 ? 0 : l.AsInt64() % b);
  }
  if (use_double) {
    double a = l.AsDouble();
    double b = r.AsDouble();
    switch (op) {
      case ArithOp::kAdd: return Value::Double(a + b);
      case ArithOp::kSub: return Value::Double(a - b);
      case ArithOp::kMul: return Value::Double(a * b);
      case ArithOp::kDiv:
        return b == 0 ? Value::Null() : Value::Double(a / b);
      default: break;
    }
    return Value::Null();
  }
  int64_t a = l.AsInt64();
  int64_t b = r.AsInt64();
  int64_t out = 0;
  bool overflow = false;
  switch (op) {
    case ArithOp::kAdd: overflow = __builtin_add_overflow(a, b, &out); break;
    case ArithOp::kSub: overflow = __builtin_sub_overflow(a, b, &out); break;
    case ArithOp::kMul: overflow = __builtin_mul_overflow(a, b, &out); break;
    case ArithOp::kDiv:
      if (b == 0 || (b == -1 && a == INT64_MIN)) return Value::Null();
      out = a / b;
      break;
    default: return Value::Null();
  }
  return overflow ? Value::Null() : Value::Int64(out);
}

/// NULL-propagating unary minus of a numeric operand; -INT64_MIN does not
/// fit and yields NULL.
inline Value NegateValueTotal(const Value& v) {
  if (v.is_null()) return Value::Null();
  if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
  int64_t a = v.AsInt64();
  return a == INT64_MIN ? Value::Null() : Value::Int64(-a);
}

}  // namespace beas

#endif  // BEAS_EXPR_VALUE_KERNELS_H_
