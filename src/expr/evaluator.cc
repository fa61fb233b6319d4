#include "expr/evaluator.h"

#include "expr/value_kernels.h"

namespace beas {

namespace {

Result<Value> EvalCompare(CompareOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (!ComparableValues(l, r)) {
    return Status::TypeError(std::string("cannot compare ") +
                             TypeIdToString(l.type()) + " with " +
                             TypeIdToString(r.type()));
  }
  return CompareValuesTotal(op, l, r);
}

Result<Value> EvalArith(ArithOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  auto numeric = [](TypeId t) {
    return t == TypeId::kInt64 || t == TypeId::kDouble;
  };
  if (!numeric(l.type()) || !numeric(r.type())) {
    return Status::TypeError("arithmetic requires numeric operands");
  }
  if (op == ArithOp::kMod &&
      (l.type() == TypeId::kDouble || r.type() == TypeId::kDouble)) {
    return Status::TypeError("% requires integer operands");
  }
  return ArithValuesTotal(op, l, r);
}

}  // namespace

Result<Value> Eval(const Expression& expr, const Row& row) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      if (expr.column_index >= row.size()) {
        return Status::Internal("column index " +
                                std::to_string(expr.column_index) +
                                " out of range for row of arity " +
                                std::to_string(row.size()));
      }
      return row[expr.column_index];
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kCompare: {
      BEAS_ASSIGN_OR_RETURN(Value l, Eval(*expr.children[0], row));
      BEAS_ASSIGN_OR_RETURN(Value r, Eval(*expr.children[1], row));
      return EvalCompare(expr.cmp, l, r);
    }
    case ExprKind::kLogic: {
      // Three-valued AND/OR with short circuit where sound.
      BEAS_ASSIGN_OR_RETURN(Value l, Eval(*expr.children[0], row));
      if (expr.logic == LogicOp::kAnd) {
        if (!l.is_null() && l.AsInt64() == 0) return BoolValueOf(false);
        BEAS_ASSIGN_OR_RETURN(Value r, Eval(*expr.children[1], row));
        if (!r.is_null() && r.AsInt64() == 0) return BoolValueOf(false);
        if (l.is_null() || r.is_null()) return Value::Null();
        return BoolValueOf(true);
      }
      if (!l.is_null() && l.AsInt64() != 0) return BoolValueOf(true);
      BEAS_ASSIGN_OR_RETURN(Value r, Eval(*expr.children[1], row));
      if (!r.is_null() && r.AsInt64() != 0) return BoolValueOf(true);
      if (l.is_null() || r.is_null()) return Value::Null();
      return BoolValueOf(false);
    }
    case ExprKind::kNot: {
      BEAS_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], row));
      if (v.is_null()) return Value::Null();
      return BoolValueOf(v.AsInt64() == 0);
    }
    case ExprKind::kNeg: {
      BEAS_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], row));
      if (v.is_null() || v.type() == TypeId::kInt64 ||
          v.type() == TypeId::kDouble) {
        return NegateValueTotal(v);
      }
      return Status::TypeError("unary minus requires a numeric operand");
    }
    case ExprKind::kArith: {
      BEAS_ASSIGN_OR_RETURN(Value l, Eval(*expr.children[0], row));
      BEAS_ASSIGN_OR_RETURN(Value r, Eval(*expr.children[1], row));
      return EvalArith(expr.arith, l, r);
    }
    case ExprKind::kBetween: {
      BEAS_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], row));
      BEAS_ASSIGN_OR_RETURN(Value lo, Eval(*expr.children[1], row));
      BEAS_ASSIGN_OR_RETURN(Value hi, Eval(*expr.children[2], row));
      BEAS_ASSIGN_OR_RETURN(Value ge, EvalCompare(CompareOp::kGe, v, lo));
      BEAS_ASSIGN_OR_RETURN(Value le, EvalCompare(CompareOp::kLe, v, hi));
      if (ge.is_null() || le.is_null()) return Value::Null();
      return BoolValueOf(ge.AsInt64() != 0 && le.AsInt64() != 0);
    }
    case ExprKind::kInList: {
      BEAS_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], row));
      if (v.is_null()) return Value::Null();
      for (const Value& item : expr.in_values) {
        if (item.is_null()) continue;
        if (ComparableValues(v, item) && v.Compare(item) == 0) {
          return BoolValueOf(true);
        }
      }
      return BoolValueOf(false);
    }
    case ExprKind::kIsNull: {
      BEAS_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], row));
      bool is_null = v.is_null();
      return BoolValueOf(expr.negated ? !is_null : is_null);
    }
  }
  return Status::Internal("bad expression kind");
}

Result<bool> EvalPredicate(const Expression& expr, const Row& row) {
  BEAS_ASSIGN_OR_RETURN(Value v, Eval(expr, row));
  return !v.is_null() && v.AsInt64() != 0;
}

}  // namespace beas
