#ifndef BEAS_BINDER_PREPARED_QUERY_H_
#define BEAS_BINDER_PREPARED_QUERY_H_

#include <vector>

#include "binder/bound_query.h"

namespace beas {

/// \brief A bound query packaged for template reuse: the service layer's
/// prepared-statement analog.
///
/// Binding is deterministic in the query's *template* (its literal-masked
/// text) plus the catalog state: two instances of one template bind to
/// structurally identical BoundQuerys that differ only in literal values.
/// A PreparedQuery captures one instance's binding plus, per literal slot,
/// whether a fresh value can be substituted without re-binding.
///
/// A slot is *substitutable* when its literal survives into a conjunct
/// expression, an output expression of a plain SELECT (no aggregates, no
/// ORDER BY), or LIMIT — places the binder treats purely structurally.
/// Every other slot is *frozen*: its value may have steered a
/// value-sensitive binder decision (GROUP BY / HAVING / ORDER BY
/// resolution matches expressions by value, ORDER BY positions are
/// literal indices, grouped outputs are matched to GROUP BY slots), so
/// instantiation requires the new instance to supply the identical value,
/// else the caller must re-bind from scratch.
///
/// Every slot, substitutable or frozen, also fixes its literal's *type*:
/// the binder coerces a literal by its own type and the column's (an INT
/// `7` probes an INT key, a DOUBLE `7.5` stays DOUBLE), so an instance
/// that spells a slot with another type binds differently and must not
/// reuse this binding.
struct PreparedQuery {
  BoundQuery query;           ///< the populating instance's binding
  std::vector<Value> params;  ///< its template parameters, in order
  std::vector<bool> substitutable;  ///< per slot of `params`

  /// Per-conjunct / per-output flags: does this expression contain any
  /// substitutable parameter (computed once to skip no-op substitutions).
  std::vector<bool> conjunct_has_params;
  std::vector<bool> output_has_params;
  /// Outputs whose display name must be re-rendered after substitution
  /// (unaliased expressions embed literal values in their names).
  std::vector<bool> output_name_from_expr;
};

/// Packages `query` (bound from a masked template whose parameters are
/// `params` — see MaskSqlLiterals).
PreparedQuery PrepareQuery(BoundQuery query, std::vector<Value> params);

/// True when `params` can instantiate `prepared`: same arity, the
/// populating instance's type in every slot, and its exact value in
/// every frozen slot.
bool AcceptsParams(const PreparedQuery& prepared,
                   const std::vector<Value>& params);

/// Instantiates the template for a new parameter vector: substitutes the
/// substitutable slots and re-derives the conjunct classifications that
/// carry constants (kEqConst / kInConst). Errors mean "re-bind the SQL
/// instead" — parameters AcceptsParams refuses, or a failed coercion.
Result<BoundQuery> InstantiatePrepared(const PreparedQuery& prepared,
                                       const std::vector<Value>& params);

}  // namespace beas

#endif  // BEAS_BINDER_PREPARED_QUERY_H_
