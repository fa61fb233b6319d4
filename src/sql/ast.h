#ifndef BEAS_SQL_AST_H_
#define BEAS_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "types/value.h"

namespace beas {

/// \brief Parse-level expression node kinds.
enum class AstExprType {
  kColumn,    ///< [table.]column reference
  kLiteral,   ///< constant
  kBinary,    ///< lhs OP rhs
  kUnary,     ///< NOT / unary minus
  kFunction,  ///< COUNT/SUM/AVG/MIN/MAX(...)
  kBetween,   ///< expr BETWEEN lo AND hi (children: expr, lo, hi)
  kInList,    ///< expr IN (v1, ..., vk)   (children: expr, v1..vk)
  kIsNull,    ///< expr IS [NOT] NULL      (negated flag)
  kStar,      ///< * (only inside COUNT(*))
};

/// \brief Binary operators at parse level.
enum class AstBinOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kAdd, kSub, kMul, kDiv, kMod,
};

/// \brief Unary operators at parse level.
enum class AstUnOp { kNot, kNeg };

struct AstExpr;
using AstExprPtr = std::unique_ptr<AstExpr>;

/// \brief A parse-level expression: a single struct with kind-dependent
/// fields (kept flat to avoid a deep class hierarchy for a small grammar).
struct AstExpr {
  AstExprType type;

  // kColumn
  std::string table;   ///< qualifier; empty if unqualified
  std::string column;

  // kLiteral
  Value literal;
  /// Provenance of the literal in the masked template: 0 = none
  /// (synthesized, e.g. NULL), +k = the value of parameter #(k-1), -k = its
  /// negation (the parser folds unary minus into literals). Lets a cached
  /// bound query be re-instantiated with new parameters without reparsing.
  int32_t literal_param = 0;

  // kBinary / kUnary
  AstBinOp bin_op = AstBinOp::kEq;
  AstUnOp un_op = AstUnOp::kNot;

  // kFunction
  std::string func_name;   ///< lowercased
  bool distinct_arg = false;

  // kIsNull
  bool negated = false;

  /// Children; meaning depends on `type` (operands, function args,
  /// BETWEEN's [expr, lo, hi], IN's [expr, item...]).
  std::vector<AstExprPtr> children;

  static AstExprPtr MakeColumn(std::string table, std::string column);
  static AstExprPtr MakeLiteral(Value v, int32_t literal_param = 0);
  static AstExprPtr MakeBinary(AstBinOp op, AstExprPtr l, AstExprPtr r);
  static AstExprPtr MakeUnary(AstUnOp op, AstExprPtr child);
  static AstExprPtr MakeStar();

  /// Renders back to SQL-ish text (stable; used in tests and plan dumps).
  std::string ToString() const;
};

/// \brief One item of the SELECT list.
struct SelectItem {
  AstExprPtr expr;
  std::string alias;  ///< empty if none
};

/// \brief One relation in FROM, with optional alias.
struct TableRef {
  std::string table;
  std::string alias;  ///< defaults to table name

  const std::string& EffectiveName() const { return alias.empty() ? table : alias; }
};

/// \brief ORDER BY item.
struct OrderItem {
  AstExprPtr expr;
  bool asc = true;
};

/// \brief A parsed SELECT statement.
///
/// `JOIN ... ON` clauses are normalized at parse time: the joined table is
/// appended to `from` and the ON condition is conjoined into `where`.
struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  AstExprPtr where;  ///< may be null
  std::vector<AstExprPtr> group_by;
  AstExprPtr having;  ///< may be null
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
  int32_t limit_param = 0;  ///< literal provenance of `limit` (see AstExpr)

  std::string ToString() const;
};

}  // namespace beas

#endif  // BEAS_SQL_AST_H_
