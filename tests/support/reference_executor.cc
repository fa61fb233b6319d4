// The reference bounded executor: see reference_executor.h. Deliberately
// a separate implementation of the paper's fetch chain (Row containers,
// map-based dedup, tree-walked expressions) from the vectorized one in
// src/bounded/, so a differential test can catch a fault in either.

#include "support/reference_executor.h"

#include <unordered_map>
#include <unordered_set>

#include "bounded/columnar_tail.h"
#include "common/failpoint.h"
#include "exec/grouping.h"
#include "expr/evaluator.h"

namespace beas {

namespace {

/// Projection / weighted aggregation / DISTINCT / ORDER BY / LIMIT over a
/// materialized T, appending to `result->rows`.
Status ScalarTail(const BoundQuery& query, const BoundedPlan& plan,
                  const BoundedExecutor::Fragment& fragment,
                  QueryResult* result) {
  // Global column index -> T position. An unsatisfiable plan's T is empty
  // and has no layout; any mapping rebinds it, and none is ever read.
  std::unordered_map<size_t, size_t> layout_pos;
  for (size_t p = 0; p < fragment.layout.size(); ++p) {
    layout_pos[query.GlobalIndex(fragment.layout[p])] = p;
  }
  if (plan.steps.empty() && !query.atoms.empty()) {
    for (size_t c = 0; c < query.total_columns; ++c) layout_pos[c] = c;
  }

  if (query.HasAggregates()) {
    // Weighted grouping over T.
    std::vector<ExprPtr> groups;
    for (const ExprPtr& g : query.group_by) {
      ExprPtr rebound = RebindColumns(g, layout_pos);
      if (!rebound) return Status::Internal("rebind failed for GROUP BY");
      groups.push_back(std::move(rebound));
    }
    std::vector<AggSpec> aggs;
    for (const AggSpec& spec : query.aggregates) {
      AggSpec copy = spec;
      if (copy.arg) {
        copy.arg = RebindColumns(copy.arg, layout_pos);
        if (!copy.arg) return Status::Internal("rebind failed for aggregate");
      }
      aggs.push_back(std::move(copy));
    }

    ValueVecGrouper grouper;
    std::vector<std::vector<WeightedAggState>> group_states;
    for (size_t r = 0; r < fragment.rows.size(); ++r) {
      const Row& row = fragment.rows[r];
      uint64_t weight = fragment.weights[r];
      ValueVec key;
      key.reserve(groups.size());
      for (const ExprPtr& g : groups) {
        BEAS_ASSIGN_OR_RETURN(Value v, Eval(*g, row));
        key.push_back(std::move(v));
      }
      size_t gid = grouper.IdFor(std::move(key));
      if (gid == group_states.size()) {
        group_states.emplace_back(aggs.size());
      }
      for (size_t i = 0; i < aggs.size(); ++i) {
        Value v;
        if (aggs[i].fn != AggFn::kCountStar) {
          BEAS_ASSIGN_OR_RETURN(v, Eval(*aggs[i].arg, row));
        }
        BEAS_RETURN_NOT_OK(
            AccumulateWeighted(aggs[i], v, weight, &group_states[gid][i]));
      }
    }
    if (groups.empty() && grouper.size() == 0) {
      grouper.IdFor(ValueVec{});
      group_states.emplace_back(aggs.size());
    }

    for (size_t gid = 0; gid < grouper.size(); ++gid) {
      const std::vector<WeightedAggState>& states = group_states[gid];
      Row agg_row = grouper.key(gid);
      for (size_t i = 0; i < aggs.size(); ++i) {
        BEAS_ASSIGN_OR_RETURN(Value v, FinalizeWeighted(aggs[i], states[i]));
        agg_row.push_back(std::move(v));
      }
      if (query.having) {
        BEAS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*query.having, agg_row));
        if (!pass) continue;
      }
      Row out_row;
      out_row.reserve(query.outputs.size());
      size_t num_groups = groups.size();
      for (const OutputItem& out : query.outputs) {
        size_t pos = out.agg == AggFn::kNone ? out.slot : num_groups + out.slot;
        out_row.push_back(agg_row[pos]);
      }
      result->rows.push_back(std::move(out_row));
    }
  } else {
    // Scalar projection with bag expansion by weight.
    std::vector<ExprPtr> outputs;
    for (const OutputItem& out : query.outputs) {
      ExprPtr rebound = RebindColumns(out.expr, layout_pos);
      if (!rebound) return Status::Internal("rebind failed for output");
      outputs.push_back(std::move(rebound));
    }
    for (size_t r = 0; r < fragment.rows.size(); ++r) {
      Row out_row;
      out_row.reserve(outputs.size());
      for (const ExprPtr& e : outputs) {
        BEAS_ASSIGN_OR_RETURN(Value v, Eval(*e, fragment.rows[r]));
        out_row.push_back(std::move(v));
      }
      if (query.distinct) {
        result->rows.push_back(std::move(out_row));
      } else {
        for (uint64_t w = 0; w < fragment.weights[r]; ++w) {
          result->rows.push_back(out_row);
        }
      }
    }
    if (query.distinct) {
      ValueVecGrouper seen;
      for (Row& row : result->rows) seen.IdFor(std::move(row));
      result->rows = seen.keys();
    }
  }

  // ORDER BY over output positions, then LIMIT.
  SortRowsAndLimit(query, &result->rows);
  return Status::OK();
}

}  // namespace

// Probe keys are served in first-appearance order, like the vectorized
// chain, so budgeted and deadline-cut runs agree too.
Result<BoundedExecutor::Fragment> ReferenceFragment(
    const AsCatalog& catalog, const BoundQuery& query, const BoundedPlan& plan,
    const BoundedExecOptions& options) {
  BoundedExecutor::Fragment fragment;
  fragment.layout = plan.layout;

  // Initial conjuncts (literal-only predicates).
  Row empty_row;
  for (size_t ci : plan.initial_conjuncts) {
    BEAS_ASSIGN_OR_RETURN(bool pass,
                          EvalPredicate(*query.conjuncts[ci].expr, empty_row));
    if (!pass) return fragment;  // empty result
  }

  // Unsatisfiable equality predicates -> empty T (plan has no steps but the
  // query has atoms).
  if (plan.steps.empty() && !query.atoms.empty()) return fragment;

  // T starts as a single empty row of weight 1.
  std::vector<Row> t_rows(1);
  std::vector<uint64_t> t_weights(1, 1);

  // Mapping from global column index to T position, grown per step.
  std::unordered_map<size_t, size_t> layout_pos;
  size_t t_width = 0;

  // Expiry is latched: once the control is observed expired every later
  // step serves zero non-null keys, exactly like an exhausted budget.
  const ExecControl& control = options.control;
  bool expired = false;

  for (const FetchStep& step : plan.steps) {
    // Test hook: a sleep(MS) action here makes a deadline pass mid-chain
    // at a deterministic step boundary. No-op when nothing is armed.
    (void)fail::Point("exec_step");
    const AcIndex* index = catalog.IndexFor(step.constraint.name);
    if (index == nullptr) {
      return Status::Internal("no index registered for constraint '" +
                              step.constraint.name + "'");
    }

    // Approximation: each step may consume whatever budget remains. This
    // greedy allocation serves every probe whenever the budget exceeds the
    // actual (not worst-case) need, and degrades later steps first when it
    // does not; eta accounts for the unserved fraction either way. An
    // exhausted budget serves zero keys, it never rounds up to one.
    const bool capped = options.fetch_budget != 0;
    const uint64_t cap =
        options.fetch_budget > fragment.stats.tuples_fetched
            ? options.fetch_budget - fragment.stats.tuples_fetched
            : 0;

    // --- Phase A: distinct probe keys from T (expanding IN-lists). ---
    // Each T row yields one key per combination of IN-list values.
    size_t combos = 1;
    for (const KeySource& src : step.key_sources) {
      if (src.kind == KeySource::Kind::kConstantList) combos *= src.list.size();
    }

    auto key_of = [&](const Row& row, size_t combo) {
      ValueVec key;
      key.reserve(step.key_sources.size());
      size_t rem = combo;
      for (const KeySource& src : step.key_sources) {
        switch (src.kind) {
          case KeySource::Kind::kConstant:
            key.push_back(src.constant);
            break;
          case KeySource::Kind::kConstantList:
            key.push_back(src.list[rem % src.list.size()]);
            rem /= src.list.size();
            break;
          case KeySource::Kind::kFromT:
            key.push_back(row[src.t_column]);
            break;
        }
      }
      return key;
    };

    // Distinct keys in first-appearance order (the order budget-capped
    // serving follows, on both executor paths).
    std::unordered_set<ValueVec, ValueVecHash, ValueVecEq> seen_keys;
    std::vector<ValueVec> ordered_keys;
    for (const Row& row : t_rows) {
      for (size_t combo = 0; combo < combos; ++combo) {
        ValueVec key = key_of(row, combo);
        if (seen_keys.insert(key).second) ordered_keys.push_back(std::move(key));
      }
    }

    // --- Phase B: probe each distinct key once (budget-capped). ---
    std::unordered_map<ValueVec, AcIndex::BucketView, ValueVecHash, ValueVecEq>
        fetched;
    uint64_t fetched_this_step = 0;
    size_t served = 0;
    size_t key_index = 0;
    for (const ValueVec& key : ordered_keys) {
      // Deterministic expiry poll: index 0 (the step boundary) and every
      // kExpiryCheckInterval-th key — the same schedule the vectorized
      // path runs, so both observe expiry at the same key.
      if (control.active() && !expired &&
          key_index % ExecControl::kExpiryCheckInterval == 0) {
        expired = control.Expired();
      }
      ++key_index;
      // NULL key components never match (SQL equality).
      bool has_null = false;
      for (const Value& v : key) has_null |= v.is_null();
      if (has_null) {
        fetched.emplace(key, AcIndex::BucketView{});
        ++served;
        continue;
      }
      if (expired) {
        continue;  // unserved, like an exhausted budget: eta shrinks
      }
      if (capped && fetched_this_step >= cap) {
        continue;  // unserved: rows keyed by it are dropped, eta shrinks
      }
      AcIndex::BucketView bucket = index->LookupWithCounts(key);
      ++fragment.stats.keys_probed;
      fetched_this_step += bucket.size();
      fragment.stats.tuples_fetched += bucket.size();
      fetched.emplace(key, bucket);
      ++served;
    }
    if (!ordered_keys.empty()) {
      fragment.stats.eta *= static_cast<double>(served) /
                            static_cast<double>(ordered_keys.size());
    }

    // --- Phase C: join T with the fetched partial tuples. ---
    // Column -> value source within the fetched data: X columns take the
    // key value (X has priority if a column is in both X and Y).
    std::unordered_map<size_t, size_t> x_pos;  // table col -> key position
    for (size_t i = 0; i < step.x_cols.size(); ++i) x_pos[step.x_cols[i]] = i;
    std::unordered_map<size_t, size_t> y_pos;  // table col -> y position
    for (size_t i = 0; i < step.y_cols.size(); ++i) {
      if (!x_pos.count(step.y_cols[i])) y_pos[step.y_cols[i]] = i;
    }

    std::vector<Row> new_rows;
    std::vector<uint64_t> new_weights;
    for (size_t r = 0; r < t_rows.size(); ++r) {
      for (size_t combo = 0; combo < combos; ++combo) {
        ValueVec key = key_of(t_rows[r], combo);
        auto it = fetched.find(key);
        if (it == fetched.end()) continue;  // unserved under budget: dropped
        const AcIndex::BucketView& bucket = it->second;
        for (size_t b = 0; b < bucket.size(); ++b) {
          Row out = t_rows[r];
          out.reserve(t_width + step.added_columns.size());
          for (const AttrRef& attr : step.added_columns) {
            auto xp = x_pos.find(attr.col);
            if (xp != x_pos.end()) {
              out.push_back(key[xp->second]);
            } else {
              out.push_back(bucket.Y(b, y_pos.at(attr.col)));
            }
          }
          new_rows.push_back(std::move(out));
          new_weights.push_back(t_weights[r] * bucket.multiplicity(b));
        }
      }
    }

    // Extend the layout mapping.
    for (const AttrRef& attr : step.added_columns) {
      layout_pos[query.GlobalIndex(attr)] = t_width++;
    }

    // Apply the conjuncts that just became evaluable.
    for (size_t ci : step.conjuncts_after) {
      ExprPtr rebound = RebindColumns(query.conjuncts[ci].expr, layout_pos);
      if (!rebound) {
        return Status::Internal("rebind failed for conjunct " +
                                query.conjuncts[ci].ToString());
      }
      std::vector<Row> kept_rows;
      std::vector<uint64_t> kept_weights;
      for (size_t r = 0; r < new_rows.size(); ++r) {
        BEAS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*rebound, new_rows[r]));
        if (pass) {
          kept_rows.push_back(std::move(new_rows[r]));
          kept_weights.push_back(new_weights[r]);
        }
      }
      new_rows = std::move(kept_rows);
      new_weights = std::move(kept_weights);
    }

    // Deduplicate T, merging weights: BEAS manipulates distinct partial
    // tuples; multiplicities live in the weights.
    std::unordered_map<ValueVec, uint64_t, ValueVecHash, ValueVecEq> merged;
    std::vector<Row> dedup_rows;
    for (size_t r = 0; r < new_rows.size(); ++r) {
      auto [it2, inserted] = merged.try_emplace(new_rows[r], 0);
      if (inserted) dedup_rows.push_back(new_rows[r]);
      it2->second += new_weights[r];
    }
    t_rows = std::move(dedup_rows);
    t_weights.clear();
    t_weights.reserve(t_rows.size());
    for (const Row& row : t_rows) t_weights.push_back(merged.at(row));
  }

  fragment.rows = std::move(t_rows);
  fragment.weights = std::move(t_weights);
  fragment.stats.timed_out = expired;
  return fragment;
}

Result<QueryResult> ExecuteReference(const AsCatalog& catalog,
                                     const BoundQuery& query,
                                     const BoundedPlan& plan,
                                     const BoundedExecOptions& options,
                                     BoundedExecStats* stats_out) {
  BEAS_ASSIGN_OR_RETURN(BoundedExecutor::Fragment fragment,
                        ReferenceFragment(catalog, query, plan, options));
  QueryResult result;
  BEAS_RETURN_NOT_OK(ScalarTail(query, plan, fragment, &result));
  result.tuples_accessed = fragment.stats.tuples_fetched;
  if (stats_out != nullptr) *stats_out = fragment.stats;
  return result;
}

}  // namespace beas
