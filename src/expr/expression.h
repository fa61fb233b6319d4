#ifndef BEAS_EXPR_EXPRESSION_H_
#define BEAS_EXPR_EXPRESSION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "types/tuple.h"
#include "types/value.h"

namespace beas {

/// \brief Bound expression node kinds (post name resolution).
enum class ExprKind {
  kColumnRef,  ///< index into the row layout the expression is bound to
  kLiteral,
  kCompare,
  kLogic,   ///< AND/OR
  kNot,
  kNeg,
  kArith,
  kBetween,  ///< children: expr, lo, hi
  kInList,   ///< children: expr; values in `in_values`
  kIsNull,   ///< `negated` distinguishes IS NULL / IS NOT NULL
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp { kAnd, kOr };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };

class Expression;
/// Shared immutable expression nodes: trees are freely shared between
/// plans; transforms (e.g. RebindColumns) build new trees.
using ExprPtr = std::shared_ptr<const Expression>;

/// \brief A bound, typed expression over a fixed row layout.
class Expression {
 public:
  ExprKind kind;

  // kColumnRef
  size_t column_index = 0;
  TypeId column_type = TypeId::kNull;
  std::string column_name;  ///< for display only, e.g. "call.region"

  // kLiteral
  Value literal;
  /// Literal provenance: 0 = none, +k = parameter #(k-1) of the masked
  /// template, -k = its negation (see AstExpr::literal_param). Used by the
  /// service layer to re-instantiate cached bound queries with new
  /// parameters (SubstituteParams).
  int32_t literal_param = 0;

  // Operators.
  CompareOp cmp = CompareOp::kEq;
  LogicOp logic = LogicOp::kAnd;
  ArithOp arith = ArithOp::kAdd;
  bool negated = false;  ///< kIsNull

  // kInList
  std::vector<Value> in_values;
  /// Provenance per IN value, parallel to `in_values` (empty = none).
  std::vector<int32_t> in_params;

  std::vector<ExprPtr> children;

  static ExprPtr Column(size_t index, TypeId type, std::string name);
  static ExprPtr Literal(Value v, int32_t literal_param = 0);
  static ExprPtr Compare(CompareOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Logic(LogicOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr child);
  static ExprPtr Neg(ExprPtr child);
  static ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Between(ExprPtr e, ExprPtr lo, ExprPtr hi);
  static ExprPtr InList(ExprPtr e, std::vector<Value> values);
  static ExprPtr InList(ExprPtr e, std::vector<Value> values,
                        std::vector<int32_t> params);
  static ExprPtr IsNull(ExprPtr e, bool negated);

  /// Static result type of the expression (predicates report kInt64 0/1).
  TypeId ResultType() const;

  /// Collects all column indices referenced, deduplicated, sorted.
  void CollectColumns(std::vector<size_t>* out) const;

  /// Structural equality (used to match GROUP BY with select items).
  bool Equals(const Expression& other) const;

  std::string ToString() const;
};

/// \brief Returns a copy of `expr` with every column index `i` replaced by
/// `mapping.at(i)`. Errors (returns nullptr) if a referenced index is
/// missing from the mapping; callers treat that as an internal bug.
ExprPtr RebindColumns(const ExprPtr& expr,
                      const std::unordered_map<size_t, size_t>& mapping);

/// \brief Returns `expr` with every provenance-tagged literal replaced by
/// the corresponding value from `params` (the literal values of a new
/// instance of the same query template, in order): negation folds
/// are re-applied and the binder's implicit coercion to the cached
/// literal's type is reproduced. Subtrees without parameters are shared,
/// not copied. Errors if an index is out of range or a coercion fails
/// (e.g. a malformed date string) — callers fall back to a full re-bind.
Result<ExprPtr> SubstituteParams(const ExprPtr& expr,
                                 const std::vector<Value>& params);

/// \brief True if any literal in `expr` carries parameter provenance.
bool HasParams(const ExprPtr& expr);

}  // namespace beas

#endif  // BEAS_EXPR_EXPRESSION_H_
