#include "binder/binder.h"

#include <algorithm>

#include "common/string_util.h"

namespace beas {

struct Binder::Context {
  const std::vector<BoundAtom>* atoms;
  const std::vector<size_t>* offsets;
  /// Non-null while binding HAVING, which ranges over the aggregation
  /// output row of this query: a column binds to its GROUP BY slot and an
  /// aggregate to its (possibly new, hidden) aggregate slot. Operators
  /// bind and type-check exactly as in WHERE and SELECT.
  BoundQuery* having = nullptr;
};

namespace {

bool IsNumericType(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble;
}

/// Coerces a literal operand to `target` when implicitly allowed, so that
/// e.g. call.date = '2016-03-01' compares DATE with DATE.
Result<ExprPtr> CoerceLiteral(ExprPtr e, TypeId target) {
  if (e->kind == ExprKind::kLiteral && !e->literal.is_null() &&
      e->literal.type() != target &&
      IsImplicitlyCoercible(e->literal.type(), target)) {
    BEAS_ASSIGN_OR_RETURN(Value v, e->literal.CoerceTo(target));
    return Expression::Literal(std::move(v), e->literal_param);
  }
  return e;
}

/// Same function, DISTINCT flag and argument: one aggregate slot serves
/// both (HAVING reuses a SELECT aggregate; ORDER BY names one).
bool SameAggregate(const AggSpec& a, const AggSpec& b) {
  return a.fn == b.fn && a.distinct == b.distinct &&
         ((!a.arg && !b.arg) || (a.arg && b.arg && a.arg->Equals(*b.arg)));
}

Result<AggFn> AggFnFromName(const std::string& name, bool star_arg) {
  if (name == "count") return star_arg ? AggFn::kCountStar : AggFn::kCount;
  if (star_arg) {
    return Status::BindError("'*' argument is only valid in COUNT(*)");
  }
  if (name == "sum") return AggFn::kSum;
  if (name == "avg") return AggFn::kAvg;
  if (name == "min") return AggFn::kMin;
  if (name == "max") return AggFn::kMax;
  return Status::BindError("unknown aggregate function '" + name + "'");
}

Result<TypeId> AggResultType(AggFn fn, const ExprPtr& arg) {
  switch (fn) {
    case AggFn::kCountStar:
    case AggFn::kCount:
      return TypeId::kInt64;
    case AggFn::kSum: {
      TypeId t = arg->ResultType();
      if (!IsNumericType(t)) {
        return Status::BindError("SUM requires a numeric argument");
      }
      return t;
    }
    case AggFn::kAvg:
      if (!IsNumericType(arg->ResultType())) {
        return Status::BindError("AVG requires a numeric argument");
      }
      return TypeId::kDouble;
    case AggFn::kMin:
    case AggFn::kMax:
      return arg->ResultType();
    case AggFn::kNone:
      break;
  }
  return Status::Internal("bad aggregate function");
}

}  // namespace

Result<AttrRef> Binder::ResolveColumn(const Context& ctx,
                                      const std::string& table,
                                      const std::string& column) const {
  const auto& atoms = *ctx.atoms;
  if (!table.empty()) {
    for (size_t a = 0; a < atoms.size(); ++a) {
      if (EqualsIgnoreCase(atoms[a].alias, table)) {
        auto idx = atoms[a].table->schema().IndexOf(column);
        if (!idx.ok()) {
          return Status::BindError("table '" + table + "' has no column '" +
                                   column + "'");
        }
        return AttrRef{a, idx.ValueOrDie()};
      }
    }
    return Status::BindError("unknown table or alias '" + table + "'");
  }
  // Unqualified: must be unique across atoms.
  std::vector<AttrRef> matches;
  for (size_t a = 0; a < atoms.size(); ++a) {
    auto idx = atoms[a].table->schema().IndexOf(column);
    if (idx.ok()) matches.push_back(AttrRef{a, idx.ValueOrDie()});
  }
  if (matches.empty()) {
    return Status::BindError("unknown column '" + column + "'");
  }
  if (matches.size() > 1) {
    return Status::BindError("ambiguous column '" + column +
                             "' (qualify with a table alias)");
  }
  return matches[0];
}

Result<ExprPtr> Binder::BindScalar(const Context& ctx,
                                   const AstExpr& ast) const {
  switch (ast.type) {
    case AstExprType::kColumn: {
      BEAS_ASSIGN_OR_RETURN(AttrRef ref, ResolveColumn(ctx, ast.table, ast.column));
      const BoundAtom& atom = (*ctx.atoms)[ref.atom];
      TypeId type = atom.table->schema().ColumnAt(ref.col).type;
      size_t global = (*ctx.offsets)[ref.atom] + ref.col;
      ExprPtr column =
          Expression::Column(global, type, atom.alias + "." + ast.column);
      if (ctx.having == nullptr) return column;
      for (size_t g = 0; g < ctx.having->group_by.size(); ++g) {
        if (ctx.having->group_by[g]->Equals(*column)) {
          return Expression::Column(g, type, column->ToString());
        }
      }
      return Status::BindError("HAVING references '" + ast.ToString() +
                               "' which is not in GROUP BY");
    }
    case AstExprType::kLiteral:
      return Expression::Literal(ast.literal, ast.literal_param);
    case AstExprType::kBinary: {
      if (ast.bin_op == AstBinOp::kAnd || ast.bin_op == AstBinOp::kOr) {
        BEAS_ASSIGN_OR_RETURN(ExprPtr l, BindScalar(ctx, *ast.children[0]));
        BEAS_ASSIGN_OR_RETURN(ExprPtr r, BindScalar(ctx, *ast.children[1]));
        return Expression::Logic(
            ast.bin_op == AstBinOp::kAnd ? LogicOp::kAnd : LogicOp::kOr,
            std::move(l), std::move(r));
      }
      BEAS_ASSIGN_OR_RETURN(ExprPtr l, BindScalar(ctx, *ast.children[0]));
      BEAS_ASSIGN_OR_RETURN(ExprPtr r, BindScalar(ctx, *ast.children[1]));
      switch (ast.bin_op) {
        case AstBinOp::kEq:
        case AstBinOp::kNe:
        case AstBinOp::kLt:
        case AstBinOp::kLe:
        case AstBinOp::kGt:
        case AstBinOp::kGe: {
          BEAS_ASSIGN_OR_RETURN(l, CoerceLiteral(std::move(l), r->ResultType()));
          BEAS_ASSIGN_OR_RETURN(r, CoerceLiteral(std::move(r), l->ResultType()));
          if (!IsComparableTypes(l->ResultType(), r->ResultType())) {
            return Status::BindError(
                std::string("cannot compare ") +
                TypeIdToString(l->ResultType()) + " with " +
                TypeIdToString(r->ResultType()) + " in " + ast.ToString());
          }
          CompareOp op;
          switch (ast.bin_op) {
            case AstBinOp::kEq: op = CompareOp::kEq; break;
            case AstBinOp::kNe: op = CompareOp::kNe; break;
            case AstBinOp::kLt: op = CompareOp::kLt; break;
            case AstBinOp::kLe: op = CompareOp::kLe; break;
            case AstBinOp::kGt: op = CompareOp::kGt; break;
            default: op = CompareOp::kGe; break;
          }
          return Expression::Compare(op, std::move(l), std::move(r));
        }
        case AstBinOp::kAdd:
        case AstBinOp::kSub:
        case AstBinOp::kMul:
        case AstBinOp::kDiv:
        case AstBinOp::kMod: {
          TypeId lt = l->ResultType();
          TypeId rt = r->ResultType();
          if ((!IsNumericType(lt) && lt != TypeId::kNull) ||
              (!IsNumericType(rt) && rt != TypeId::kNull)) {
            return Status::BindError("arithmetic requires numeric operands in " +
                                     ast.ToString());
          }
          // `%` is integer-only: the evaluator cannot take a DOUBLE
          // remainder, so a DOUBLE operand is refused here rather than per
          // row at run time.
          if (ast.bin_op == AstBinOp::kMod &&
              (lt == TypeId::kDouble || rt == TypeId::kDouble)) {
            return Status::BindError("% requires integer operands in " +
                                     ast.ToString());
          }
          ArithOp op;
          switch (ast.bin_op) {
            case AstBinOp::kAdd: op = ArithOp::kAdd; break;
            case AstBinOp::kSub: op = ArithOp::kSub; break;
            case AstBinOp::kMul: op = ArithOp::kMul; break;
            case AstBinOp::kDiv: op = ArithOp::kDiv; break;
            default: op = ArithOp::kMod; break;
          }
          return Expression::Arith(op, std::move(l), std::move(r));
        }
        default:
          return Status::Internal("unhandled binary op");
      }
    }
    case AstExprType::kUnary: {
      BEAS_ASSIGN_OR_RETURN(ExprPtr child, BindScalar(ctx, *ast.children[0]));
      if (ast.un_op == AstUnOp::kNot) return Expression::Not(std::move(child));
      if (!IsNumericType(child->ResultType())) {
        return Status::BindError("unary minus requires a numeric operand");
      }
      return Expression::Neg(std::move(child));
    }
    case AstExprType::kBetween: {
      BEAS_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(ctx, *ast.children[0]));
      BEAS_ASSIGN_OR_RETURN(ExprPtr lo, BindScalar(ctx, *ast.children[1]));
      BEAS_ASSIGN_OR_RETURN(ExprPtr hi, BindScalar(ctx, *ast.children[2]));
      BEAS_ASSIGN_OR_RETURN(lo, CoerceLiteral(std::move(lo), e->ResultType()));
      BEAS_ASSIGN_OR_RETURN(hi, CoerceLiteral(std::move(hi), e->ResultType()));
      if (!IsComparableTypes(e->ResultType(), lo->ResultType()) ||
          !IsComparableTypes(e->ResultType(), hi->ResultType())) {
        return Status::BindError("BETWEEN operands are not comparable in " +
                                 ast.ToString());
      }
      return Expression::Between(std::move(e), std::move(lo), std::move(hi));
    }
    case AstExprType::kInList: {
      BEAS_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(ctx, *ast.children[0]));
      std::vector<Value> values;
      std::vector<int32_t> params;
      for (size_t i = 1; i < ast.children.size(); ++i) {
        if (ast.children[i]->type != AstExprType::kLiteral) {
          return Status::BindError("IN list items must be literals");
        }
        Value v = ast.children[i]->literal;
        if (!v.is_null() && v.type() != e->ResultType() &&
            IsImplicitlyCoercible(v.type(), e->ResultType())) {
          BEAS_ASSIGN_OR_RETURN(v, v.CoerceTo(e->ResultType()));
        }
        if (!v.is_null() && !IsComparableTypes(v.type(), e->ResultType())) {
          return Status::BindError("IN list item " + v.ToString() +
                                   " is not comparable with " +
                                   ast.children[0]->ToString());
        }
        values.push_back(std::move(v));
        params.push_back(ast.children[i]->literal_param);
      }
      return Expression::InList(std::move(e), std::move(values),
                                std::move(params));
    }
    case AstExprType::kIsNull: {
      BEAS_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(ctx, *ast.children[0]));
      return Expression::IsNull(std::move(e), ast.negated);
    }
    case AstExprType::kFunction: {
      if (ctx.having == nullptr) {
        return Status::BindError("aggregate '" + ast.func_name +
                                 "' is not allowed in this clause");
      }
      // HAVING: the aggregate's slot in the aggregation output, reusing a
      // matching aggregate or appending a hidden one.
      BEAS_ASSIGN_OR_RETURN(AggSpec spec, BindAggregate(ctx, ast));
      std::vector<AggSpec>& aggs = ctx.having->aggregates;
      size_t slot = 0;
      while (slot < aggs.size() && !SameAggregate(aggs[slot], spec)) ++slot;
      if (slot == aggs.size()) aggs.push_back(std::move(spec));
      return Expression::Column(ctx.having->group_by.size() + slot,
                                aggs[slot].result_type, aggs[slot].name);
    }
    case AstExprType::kStar:
      return Status::BindError("'*' is only valid in COUNT(*)");
  }
  return Status::Internal("bad AST node");
}

Status Binder::ClassifyConjunct(const BoundQuery& query,
                                Conjunct* conjunct) const {
  const Expression& e = *conjunct->expr;

  std::vector<size_t> cols;
  e.CollectColumns(&cols);
  conjunct->attrs.clear();
  for (size_t g : cols) conjunct->attrs.push_back(query.AttrOfGlobal(g));

  conjunct->cls = ConjunctClass::kOther;
  if (e.kind == ExprKind::kCompare && e.cmp == CompareOp::kEq) {
    const Expression& l = *e.children[0];
    const Expression& r = *e.children[1];
    if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kLiteral &&
        !r.literal.is_null()) {
      conjunct->cls = ConjunctClass::kEqConst;
      conjunct->lhs = query.AttrOfGlobal(l.column_index);
      conjunct->const_val = r.literal;
    } else if (r.kind == ExprKind::kColumnRef && l.kind == ExprKind::kLiteral &&
               !l.literal.is_null()) {
      conjunct->cls = ConjunctClass::kEqConst;
      conjunct->lhs = query.AttrOfGlobal(r.column_index);
      conjunct->const_val = l.literal;
    } else if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kColumnRef) {
      conjunct->cls = ConjunctClass::kEqAttr;
      conjunct->lhs = query.AttrOfGlobal(l.column_index);
      conjunct->rhs = query.AttrOfGlobal(r.column_index);
    }
  } else if (e.kind == ExprKind::kInList &&
             e.children[0]->kind == ExprKind::kColumnRef) {
    bool all_non_null = true;
    for (const Value& v : e.in_values) {
      if (v.is_null()) all_non_null = false;
    }
    if (all_non_null && !e.in_values.empty()) {
      conjunct->cls = ConjunctClass::kInConst;
      conjunct->lhs = query.AttrOfGlobal(e.children[0]->column_index);
      // Deduplicate: IN (2, 2) ≡ IN (2). The list seeds bounded-plan probe
      // keys and the bound multiplier, where duplicates would double-count.
      for (const Value& v : e.in_values) {
        bool seen = false;
        for (const Value& w : conjunct->in_vals) seen |= (w == v);
        if (!seen) conjunct->in_vals.push_back(v);
      }
    }
  }
  return Status::OK();
}

Status Binder::BindWhere(const Context& ctx, const AstExpr& ast,
                         BoundQuery* query) const {
  // Flatten top-level ANDs into CNF conjuncts.
  if (ast.type == AstExprType::kBinary && ast.bin_op == AstBinOp::kAnd) {
    BEAS_RETURN_NOT_OK(BindWhere(ctx, *ast.children[0], query));
    BEAS_RETURN_NOT_OK(BindWhere(ctx, *ast.children[1], query));
    return Status::OK();
  }
  auto bound = BindScalar(ctx, ast);
  if (!bound.ok()) return bound.status();
  Conjunct conjunct;
  conjunct.expr = std::move(bound).ValueOrDie();
  BEAS_RETURN_NOT_OK(ClassifyConjunct(*query, &conjunct));
  query->conjuncts.push_back(std::move(conjunct));
  return Status::OK();
}

Result<AggSpec> Binder::BindAggregate(const Context& ctx,
                                      const AstExpr& ast) const {
  bool star = !ast.children.empty() &&
              ast.children[0]->type == AstExprType::kStar;
  AggSpec spec;
  BEAS_ASSIGN_OR_RETURN(spec.fn, AggFnFromName(ast.func_name, star));
  spec.distinct = ast.distinct_arg;
  spec.name = ast.ToString();
  if (star) return spec;
  // The argument ranges over input rows, never the aggregation output.
  Context input{ctx.atoms, ctx.offsets, nullptr};
  BEAS_ASSIGN_OR_RETURN(spec.arg, BindScalar(input, *ast.children[0]));
  BEAS_ASSIGN_OR_RETURN(spec.result_type, AggResultType(spec.fn, spec.arg));
  return spec;
}

Result<BoundQuery> Binder::Bind(const SelectStatement& stmt) {
  BoundQuery query;

  // FROM: resolve atoms.
  if (stmt.from.empty()) {
    return Status::BindError("FROM clause is required");
  }
  for (const TableRef& ref : stmt.from) {
    auto table = catalog_->GetTable(ref.table);
    if (!table.ok()) {
      return Status::BindError("unknown table '" + ref.table + "'");
    }
    const std::string& alias = ref.EffectiveName();
    for (const BoundAtom& existing : query.atoms) {
      if (EqualsIgnoreCase(existing.alias, alias)) {
        return Status::BindError("duplicate table alias '" + alias + "'");
      }
    }
    query.atoms.push_back(BoundAtom{table.ValueOrDie(), alias});
  }
  query.atom_offsets.resize(query.atoms.size());
  size_t offset = 0;
  for (size_t a = 0; a < query.atoms.size(); ++a) {
    query.atom_offsets[a] = offset;
    offset += query.atoms[a].table->schema().NumColumns();
  }
  query.total_columns = offset;

  Context ctx{&query.atoms, &query.atom_offsets, nullptr};

  // WHERE.
  if (stmt.where) {
    BEAS_RETURN_NOT_OK(BindWhere(ctx, *stmt.where, &query));
  }

  // GROUP BY.
  for (const AstExprPtr& g : stmt.group_by) {
    BEAS_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(ctx, *g));
    query.group_by.push_back(std::move(e));
  }

  // SELECT list.
  for (const SelectItem& item : stmt.items) {
    OutputItem out;
    const AstExpr& ast = *item.expr;
    if (ast.type == AstExprType::kFunction) {
      BEAS_ASSIGN_OR_RETURN(AggSpec spec, BindAggregate(ctx, ast));
      if (!item.alias.empty()) spec.name = item.alias;
      out.agg = spec.fn;
      out.slot = query.aggregates.size();
      out.name = spec.name;
      out.type = spec.result_type;
      query.aggregates.push_back(std::move(spec));
    } else {
      if (ast.type == AstExprType::kStar) {
        return Status::BindError(
            "SELECT * is not supported; name the columns explicitly");
      }
      BEAS_ASSIGN_OR_RETURN(out.expr, BindScalar(ctx, ast));
      out.name = item.alias.empty() ? ast.ToString() : item.alias;
      out.type = out.expr->ResultType();
    }
    query.outputs.push_back(std::move(out));
  }

  // Aggregate-query validation: every scalar output must match a GROUP BY
  // expression.
  if (query.HasAggregates()) {
    for (OutputItem& out : query.outputs) {
      if (out.agg != AggFn::kNone) continue;
      bool found = false;
      for (size_t g = 0; g < query.group_by.size(); ++g) {
        if (query.group_by[g]->Equals(*out.expr)) {
          out.slot = g;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::BindError("output '" + out.name +
                                 "' must appear in GROUP BY or be aggregated");
      }
    }
  }

  // HAVING.
  if (stmt.having) {
    if (!query.HasAggregates()) {
      return Status::BindError("HAVING requires GROUP BY or aggregates");
    }
    Context having{&query.atoms, &query.atom_offsets, &query};
    BEAS_ASSIGN_OR_RETURN(query.having, BindScalar(having, *stmt.having));
  }

  // ORDER BY: resolve to output positions.
  for (const OrderItem& item : stmt.order_by) {
    const AstExpr& ast = *item.expr;
    BoundOrderItem bound;
    bound.asc = item.asc;
    bool resolved = false;
    if (ast.type == AstExprType::kLiteral &&
        ast.literal.type() == TypeId::kInt64) {
      int64_t pos = ast.literal.AsInt64();
      if (pos < 1 || pos > static_cast<int64_t>(query.outputs.size())) {
        return Status::BindError("ORDER BY position " + std::to_string(pos) +
                                 " is out of range");
      }
      bound.output_index = static_cast<size_t>(pos - 1);
      resolved = true;
    } else if (ast.type == AstExprType::kColumn) {
      // Try alias/name match first.
      for (size_t i = 0; i < query.outputs.size() && !resolved; ++i) {
        if (EqualsIgnoreCase(query.outputs[i].name, ast.column) ||
            EqualsIgnoreCase(query.outputs[i].name, ast.ToString())) {
          bound.output_index = i;
          resolved = true;
        }
      }
      // Then structural match against scalar outputs.
      if (!resolved) {
        auto e = BindScalar(ctx, ast);
        if (e.ok()) {
          for (size_t i = 0; i < query.outputs.size() && !resolved; ++i) {
            if (query.outputs[i].expr &&
                query.outputs[i].expr->Equals(**e)) {
              bound.output_index = i;
              resolved = true;
            }
          }
        }
      }
    } else if (ast.type == AstExprType::kFunction) {
      // Match an aggregate output by (fn, distinct, argument).
      BEAS_ASSIGN_OR_RETURN(AggSpec spec, BindAggregate(ctx, ast));
      for (size_t i = 0; i < query.outputs.size() && !resolved; ++i) {
        const OutputItem& out = query.outputs[i];
        if (out.agg != AggFn::kNone &&
            SameAggregate(query.aggregates[out.slot], spec)) {
          bound.output_index = i;
          resolved = true;
        }
      }
    }
    if (!resolved) {
      return Status::BindError(
          "ORDER BY must reference a select-list column, alias, or position: " +
          ast.ToString());
    }
    query.order_by.push_back(bound);
  }

  query.limit = stmt.limit;
  query.limit_param = stmt.limit_param;
  query.distinct = stmt.distinct;
  if (query.distinct && query.HasAggregates()) {
    return Status::BindError(
        "SELECT DISTINCT with aggregates is not supported");
  }
  return query;
}

}  // namespace beas
