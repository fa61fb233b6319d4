#include "binder/prepared_query.h"

#include "expr/expression.h"

namespace beas {

namespace {

void MarkParams(const ExprPtr& e, std::vector<bool>* substitutable) {
  if (!e) return;
  auto mark = [&](int32_t p) {
    if (p == 0) return;
    size_t idx = static_cast<size_t>(p > 0 ? p : -p) - 1;
    if (idx < substitutable->size()) (*substitutable)[idx] = true;
  };
  mark(e->literal_param);
  for (int32_t p : e->in_params) mark(p);
  for (const ExprPtr& child : e->children) MarkParams(child, substitutable);
}

/// Refreshes the value-carrying halves of a conjunct's classification
/// after substitution (the structural halves — cls, lhs, rhs, attrs — are
/// template-level and stay). Mirrors Binder::ClassifyConjunct.
void RefreshConjunctConstants(Conjunct* conjunct) {
  const Expression& e = *conjunct->expr;
  if (conjunct->cls == ConjunctClass::kEqConst) {
    const Expression& r = *e.children[1];
    conjunct->const_val =
        r.kind == ExprKind::kLiteral ? r.literal : e.children[0]->literal;
  } else if (conjunct->cls == ConjunctClass::kInConst) {
    conjunct->in_vals.clear();
    for (const Value& v : e.in_values) {
      bool seen = false;
      for (const Value& w : conjunct->in_vals) seen |= (w == v);
      if (!seen) conjunct->in_vals.push_back(v);
    }
  }
}

}  // namespace

PreparedQuery PrepareQuery(BoundQuery query, std::vector<Value> params) {
  PreparedQuery out;
  out.params = std::move(params);
  out.substitutable.assign(out.params.size(), false);

  out.conjunct_has_params.reserve(query.conjuncts.size());
  for (const Conjunct& c : query.conjuncts) {
    MarkParams(c.expr, &out.substitutable);
    out.conjunct_has_params.push_back(HasParams(c.expr));
  }
  // Output literals are substitutable only in plain SELECTs: in grouped /
  // aggregate queries the binder matched each scalar output to a GROUP BY
  // expression *by value* (OutputItem::slot), and ORDER BY items may have
  // structurally matched an output the same way — substituting would
  // silently break the match a fresh bind re-checks.
  bool outputs_substitutable =
      !query.HasAggregates() && query.order_by.empty();
  out.output_has_params.reserve(query.outputs.size());
  out.output_name_from_expr.reserve(query.outputs.size());
  for (const OutputItem& item : query.outputs) {
    if (outputs_substitutable) MarkParams(item.expr, &out.substitutable);
    out.output_has_params.push_back(outputs_substitutable &&
                                    HasParams(item.expr));
    out.output_name_from_expr.push_back(
        item.expr != nullptr && item.name == item.expr->ToString());
  }
  if (query.limit_param != 0) {
    size_t idx = static_cast<size_t>(query.limit_param) - 1;
    if (idx < out.substitutable.size()) out.substitutable[idx] = true;
  }
  // Everything else — GROUP BY, aggregate arguments, HAVING, and literals
  // consumed during binding (ORDER BY positions / matching) — stays
  // frozen: the binder resolves those by value.
  out.query = std::move(query);
  return out;
}

bool AcceptsParams(const PreparedQuery& prepared,
                   const std::vector<Value>& params) {
  if (params.size() != prepared.params.size()) return false;
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].type() != prepared.params[i].type()) return false;
    if (!prepared.substitutable[i] && params[i] != prepared.params[i]) {
      return false;
    }
  }
  return true;
}

Result<BoundQuery> InstantiatePrepared(const PreparedQuery& prepared,
                                       const std::vector<Value>& params) {
  if (!AcceptsParams(prepared, params)) {
    return Status::Internal(
        "parameters differ from the template's slot types or frozen values");
  }

  BoundQuery query = prepared.query;
  if (query.limit_param != 0) {
    // The parser accepts only an INT literal after LIMIT, and the slot
    // keeps that type.
    query.limit = params[static_cast<size_t>(query.limit_param) - 1].AsInt64();
  }
  for (size_t ci = 0; ci < query.conjuncts.size(); ++ci) {
    if (!prepared.conjunct_has_params[ci]) continue;
    Conjunct& c = query.conjuncts[ci];
    BEAS_ASSIGN_OR_RETURN(c.expr, SubstituteParams(c.expr, params));
    RefreshConjunctConstants(&c);
  }
  for (size_t oi = 0; oi < query.outputs.size(); ++oi) {
    if (!prepared.output_has_params[oi]) continue;
    OutputItem& item = query.outputs[oi];
    BEAS_ASSIGN_OR_RETURN(item.expr, SubstituteParams(item.expr, params));
    if (prepared.output_name_from_expr[oi]) item.name = item.expr->ToString();
  }
  return query;
}

}  // namespace beas
