#ifndef BEAS_BINDER_BINDER_H_
#define BEAS_BINDER_BINDER_H_

#include <string>

#include "binder/bound_query.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "sql/ast.h"

namespace beas {

/// \brief Semantic analysis: resolves a parsed SelectStatement against the
/// catalog into a BoundQuery.
///
/// Responsibilities:
///  - FROM resolution (tables, unique aliases, self-joins);
///  - column resolution (qualified and unqualified; ambiguity detection);
///  - literal coercion (string/int literals compared to DATE columns);
///  - static type checking of comparisons and arithmetic;
///  - CNF conversion of WHERE and conjunct classification (attr = const,
///    attr = attr, attr IN (...), other) for the BE checker;
///  - aggregate validation (non-aggregated outputs must appear in GROUP BY;
///    no nested aggregates) and HAVING/ORDER BY resolution.
class Binder {
 public:
  explicit Binder(const Catalog* catalog) : catalog_(catalog) {}

  /// Binds a parsed statement.
  Result<BoundQuery> Bind(const SelectStatement& stmt);

 private:
  struct Context;

  Result<AttrRef> ResolveColumn(const Context& ctx, const std::string& table,
                                const std::string& column) const;
  Result<ExprPtr> BindScalar(const Context& ctx, const AstExpr& ast) const;
  Status BindWhere(const Context& ctx, const AstExpr& ast,
                   BoundQuery* query) const;
  Status ClassifyConjunct(const BoundQuery& query, Conjunct* conjunct) const;
  Result<AggSpec> BindAggregate(const Context& ctx, const AstExpr& ast) const;

  const Catalog* catalog_;
};

}  // namespace beas

#endif  // BEAS_BINDER_BINDER_H_
