#include "expr/expression.h"

#include <algorithm>

namespace beas {

namespace {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
    case ArithOp::kMod: return "%";
  }
  return "?";
}

std::shared_ptr<Expression> NewNode(ExprKind kind) {
  auto node = std::make_shared<Expression>();
  node->kind = kind;
  return node;
}

}  // namespace

ExprPtr Expression::Column(size_t index, TypeId type, std::string name) {
  auto n = NewNode(ExprKind::kColumnRef);
  n->column_index = index;
  n->column_type = type;
  n->column_name = std::move(name);
  return n;
}

ExprPtr Expression::Literal(Value v, int32_t literal_param) {
  auto n = NewNode(ExprKind::kLiteral);
  n->literal = std::move(v);
  n->literal_param = literal_param;
  return n;
}

ExprPtr Expression::Compare(CompareOp op, ExprPtr l, ExprPtr r) {
  auto n = NewNode(ExprKind::kCompare);
  n->cmp = op;
  n->children = {std::move(l), std::move(r)};
  return n;
}

ExprPtr Expression::Logic(LogicOp op, ExprPtr l, ExprPtr r) {
  auto n = NewNode(ExprKind::kLogic);
  n->logic = op;
  n->children = {std::move(l), std::move(r)};
  return n;
}

ExprPtr Expression::Not(ExprPtr child) {
  auto n = NewNode(ExprKind::kNot);
  n->children = {std::move(child)};
  return n;
}

ExprPtr Expression::Neg(ExprPtr child) {
  auto n = NewNode(ExprKind::kNeg);
  n->children = {std::move(child)};
  return n;
}

ExprPtr Expression::Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto n = NewNode(ExprKind::kArith);
  n->arith = op;
  n->children = {std::move(l), std::move(r)};
  return n;
}

ExprPtr Expression::Between(ExprPtr e, ExprPtr lo, ExprPtr hi) {
  auto n = NewNode(ExprKind::kBetween);
  n->children = {std::move(e), std::move(lo), std::move(hi)};
  return n;
}

ExprPtr Expression::InList(ExprPtr e, std::vector<Value> values) {
  auto n = NewNode(ExprKind::kInList);
  n->children = {std::move(e)};
  n->in_values = std::move(values);
  return n;
}

ExprPtr Expression::InList(ExprPtr e, std::vector<Value> values,
                           std::vector<int32_t> params) {
  auto n = NewNode(ExprKind::kInList);
  n->children = {std::move(e)};
  n->in_values = std::move(values);
  n->in_params = std::move(params);
  return n;
}

ExprPtr Expression::IsNull(ExprPtr e, bool negated) {
  auto n = NewNode(ExprKind::kIsNull);
  n->negated = negated;
  n->children = {std::move(e)};
  return n;
}

TypeId Expression::ResultType() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      return column_type;
    case ExprKind::kLiteral:
      return literal.type();
    case ExprKind::kCompare:
    case ExprKind::kLogic:
    case ExprKind::kNot:
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      return TypeId::kInt64;  // boolean as 0/1
    case ExprKind::kNeg:
      return children[0]->ResultType();
    case ExprKind::kArith: {
      TypeId l = children[0]->ResultType();
      TypeId r = children[1]->ResultType();
      if (l == TypeId::kDouble || r == TypeId::kDouble) return TypeId::kDouble;
      return TypeId::kInt64;
    }
  }
  return TypeId::kNull;
}

void Expression::CollectColumns(std::vector<size_t>* out) const {
  if (kind == ExprKind::kColumnRef) {
    out->push_back(column_index);
  }
  for (const auto& c : children) c->CollectColumns(out);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

bool Expression::Equals(const Expression& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case ExprKind::kColumnRef:
      return column_index == other.column_index;
    case ExprKind::kLiteral:
      return literal.type() == other.literal.type() && literal == other.literal;
    case ExprKind::kCompare:
      if (cmp != other.cmp) return false;
      break;
    case ExprKind::kLogic:
      if (logic != other.logic) return false;
      break;
    case ExprKind::kArith:
      if (arith != other.arith) return false;
      break;
    case ExprKind::kIsNull:
      if (negated != other.negated) return false;
      break;
    case ExprKind::kInList: {
      if (in_values.size() != other.in_values.size()) return false;
      for (size_t i = 0; i < in_values.size(); ++i) {
        if (in_values[i] != other.in_values[i]) return false;
      }
      break;
    }
    default:
      break;
  }
  if (children.size() != other.children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

std::string Expression::ToString() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      return column_name.empty() ? "#" + std::to_string(column_index)
                                 : column_name;
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kCompare:
      return "(" + children[0]->ToString() + " " + CompareOpToString(cmp) +
             " " + children[1]->ToString() + ")";
    case ExprKind::kLogic:
      return "(" + children[0]->ToString() +
             (logic == LogicOp::kAnd ? " AND " : " OR ") +
             children[1]->ToString() + ")";
    case ExprKind::kNot:
      return "(NOT " + children[0]->ToString() + ")";
    case ExprKind::kNeg:
      return "(-" + children[0]->ToString() + ")";
    case ExprKind::kArith:
      return "(" + children[0]->ToString() + " " + ArithOpToString(arith) +
             " " + children[1]->ToString() + ")";
    case ExprKind::kBetween:
      return "(" + children[0]->ToString() + " BETWEEN " +
             children[1]->ToString() + " AND " + children[2]->ToString() + ")";
    case ExprKind::kInList: {
      std::string out = "(" + children[0]->ToString() + " IN (";
      for (size_t i = 0; i < in_values.size(); ++i) {
        if (i > 0) out += ", ";
        out += in_values[i].ToString();
      }
      return out + "))";
    }
    case ExprKind::kIsNull:
      return "(" + children[0]->ToString() +
             (negated ? " IS NOT NULL)" : " IS NULL)");
  }
  return "?";
}

bool HasParams(const ExprPtr& expr) {
  if (!expr) return false;
  if (expr->literal_param != 0) return true;
  for (int32_t p : expr->in_params) {
    if (p != 0) return true;
  }
  for (const ExprPtr& child : expr->children) {
    if (HasParams(child)) return true;
  }
  return false;
}

namespace {

/// Resolves one provenance slot against a new instance's literal values:
/// re-applies the parser's negation fold and the binder's implicit
/// coercion to the type the cached literal ended up with. The caller has
/// checked that every parameter keeps its populating instance's type, so
/// this is the coercion a fresh bind applies; a value it cannot take (a
/// malformed date) is an error, as it is for a fresh bind.
Result<Value> ResolveParam(int32_t param, TypeId target_type,
                           const std::vector<Value>& params) {
  size_t idx = static_cast<size_t>(param > 0 ? param : -param) - 1;
  if (idx >= params.size()) {
    return Status::Internal("literal parameter index out of range");
  }
  Value v = params[idx];
  if (param < 0) {
    if (v.type() == TypeId::kInt64) {
      v = Value::Int64(-v.AsInt64());
    } else if (v.type() == TypeId::kDouble) {
      v = Value::Double(-v.AsDouble());
    } else {
      return Status::Internal("cannot negate a non-numeric parameter");
    }
  }
  if (!v.is_null() && v.type() != target_type) {
    BEAS_ASSIGN_OR_RETURN(v, v.CoerceTo(target_type));
  }
  return v;
}

}  // namespace

Result<ExprPtr> SubstituteParams(const ExprPtr& expr,
                                 const std::vector<Value>& params) {
  if (!expr || !HasParams(expr)) return expr;  // share unchanged subtrees
  if (expr->kind == ExprKind::kLiteral) {
    BEAS_ASSIGN_OR_RETURN(
        Value v, ResolveParam(expr->literal_param, expr->literal.type(),
                              params));
    return Expression::Literal(std::move(v), expr->literal_param);
  }
  auto copy = std::make_shared<Expression>(*expr);
  if (expr->kind == ExprKind::kInList) {
    for (size_t i = 0;
         i < copy->in_values.size() && i < copy->in_params.size(); ++i) {
      if (copy->in_params[i] == 0) continue;
      BEAS_ASSIGN_OR_RETURN(
          copy->in_values[i],
          ResolveParam(copy->in_params[i], expr->in_values[i].type(),
                       params));
    }
  }
  copy->children.clear();
  for (const ExprPtr& child : expr->children) {
    BEAS_ASSIGN_OR_RETURN(ExprPtr c, SubstituteParams(child, params));
    copy->children.push_back(std::move(c));
  }
  return ExprPtr(std::move(copy));
}

ExprPtr RebindColumns(const ExprPtr& expr,
                      const std::unordered_map<size_t, size_t>& mapping) {
  if (!expr) return nullptr;
  if (expr->kind == ExprKind::kColumnRef) {
    auto it = mapping.find(expr->column_index);
    if (it == mapping.end()) return nullptr;
    return Expression::Column(it->second, expr->column_type, expr->column_name);
  }
  auto copy = std::make_shared<Expression>(*expr);
  copy->children.clear();
  for (const auto& child : expr->children) {
    ExprPtr re = RebindColumns(child, mapping);
    if (!re) return nullptr;
    copy->children.push_back(std::move(re));
  }
  return copy;
}

}  // namespace beas
