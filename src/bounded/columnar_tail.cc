#include "bounded/columnar_tail.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>

#include "common/hash.h"
#include "common/task_pool.h"
#include "exec/grouping.h"
#include "expr/evaluator.h"
#include "expr/expr_program.h"

namespace beas {

std::atomic<uint64_t>& TailBatchesTotal() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

std::atomic<uint64_t>& TailRowsGrouped() {
  static std::atomic<uint64_t> counter{0};
  return counter;
}

namespace {

/// Row counts below this run the serial fold even with a pool: the chunk
/// dispatch and per-chunk group tables would cost more than they save.
constexpr size_t kParallelTailThreshold = 4096;

/// Target rows per parallel fold chunk.
constexpr size_t kTailChunk = 4096;

/// One tail input column: borrowed from the batch when the expression is
/// a plain column reference (the overwhelmingly common tail shape), or
/// computed once per batch through a compiled ExprProgram otherwise.
/// Borrowing keeps dictionary-encoded columns encoded — grouping and
/// sorting then work on raw uint32 codes.
struct TailColumn {
  int64_t slot = -1;  ///< >= 0: borrowed batch column
  BatchColumn owned;  ///< slot < 0: computed values

  const BatchColumn& of(const TupleBatch& t) const {
    return slot >= 0 ? t.column(static_cast<size_t>(slot)) : owned;
  }
};

/// Resolves `expr` against the batch layout. Every bound tail expression
/// resolves: a covered plan's T holds every column its tail reads, and
/// the binder refuses every expression ExprProgram does not compile. The
/// error return keeps a broken invariant from becoming undefined
/// behaviour in builds without asserts.
Status ResolveTailColumn(const Expression& expr, const TupleBatch& t,
                         const std::vector<int64_t>& slots, TailColumn* out) {
  if (expr.kind == ExprKind::kColumnRef && expr.column_index < slots.size() &&
      slots[expr.column_index] >= 0) {
    out->slot = slots[expr.column_index];
    return Status::OK();
  }
  std::optional<ExprProgram> prog = ExprProgram::Compile(expr, slots);
  assert(prog.has_value());
  if (!prog.has_value()) {
    return Status::Internal("tail expression does not compile: " +
                            expr.ToString());
  }
  BEAS_ASSIGN_OR_RETURN(std::vector<Value> lits, prog->BindLiterals(expr));
  out->slot = -1;
  out->owned.values.reserve(t.num_rows());
  std::vector<Value> stack;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out->owned.values.push_back(
        prog->EvalRow(t.columns().data(), r, lits, &stack));
  }
  return Status::OK();
}

/// Key-row hash over the key columns: encoded columns hash the raw code
/// (kNullCode hashes like any other sentinel — it only ever equals
/// itself), generic columns hash the Value in place. Internal to one
/// grouping pass, so it needs no agreement with ValueVecHash — equality
/// below is what decides groups, and it matches Value semantics exactly.
uint64_t HashKeyAt(const std::vector<const BatchColumn*>& keys, size_t r) {
  uint64_t h = kValueVecHashSeed;
  for (const BatchColumn* col : keys) {
    HashCombine(&h, col->encoded() ? HashInt64(col->codes[r])
                                   : col->values[r].Hash());
  }
  return h;
}

bool KeysEqualAt(const std::vector<const BatchColumn*>& keys, size_t a,
                 size_t b) {
  for (const BatchColumn* col : keys) {
    if (!col->RowsEqual(a, b)) return false;
  }
  return true;
}

/// Dense first-appearance group ids over a set of key columns — the
/// code-aware grouper. Keys are never materialized: a group is
/// represented by its first row index, hashing reads codes / unboxed
/// Values straight from the columns, and equality is a code compare on
/// encoded columns (equal codes <=> equal bytes, so groups and their
/// order are exactly those of the scalar tail's ValueVec grouper).
class BatchKeyGrouper {
 public:
  BatchKeyGrouper(const std::vector<const BatchColumn*>* keys,
                  size_t expected_rows)
      : keys_(keys) {
    size_t cap = HashTableCapacity(expected_rows * 2);
    mask_ = cap - 1;
    slots_.assign(cap, UINT32_MAX);
  }

  uint32_t IdFor(size_t row) {
    if ((first_rows_.size() + 1) * 2 > slots_.size()) Grow();
    uint64_t h = HashKeyAt(*keys_, row);
    size_t slot = static_cast<size_t>(h) & mask_;
    for (;;) {
      uint32_t id = slots_[slot];
      if (id == UINT32_MAX) {
        id = static_cast<uint32_t>(first_rows_.size());
        slots_[slot] = id;
        first_rows_.push_back(row);
        hashes_.push_back(h);
        return id;
      }
      if (hashes_[id] == h && KeysEqualAt(*keys_, first_rows_[id], row)) {
        return id;
      }
      slot = (slot + 1) & mask_;
    }
  }

  size_t size() const { return first_rows_.size(); }
  size_t first_row(uint32_t id) const { return first_rows_[id]; }

 private:
  void Grow() {
    size_t cap = slots_.size() * 2;
    mask_ = cap - 1;
    slots_.assign(cap, UINT32_MAX);
    for (uint32_t id = 0; id < first_rows_.size(); ++id) {
      size_t slot = static_cast<size_t>(hashes_[id]) & mask_;
      while (slots_[slot] != UINT32_MAX) slot = (slot + 1) & mask_;
      slots_[slot] = id;
    }
  }

  const std::vector<const BatchColumn*>* keys_;
  std::vector<size_t> first_rows_;  ///< group id -> representative row
  std::vector<uint64_t> hashes_;    ///< parallel to first_rows_
  std::vector<uint32_t> slots_;     ///< open addressing, UINT32_MAX free
  size_t mask_ = 0;
};

/// Three-way comparison of two rows within one column, matching
/// Value::Compare semantics (NULL first, NULL == NULL). Equal codes of an
/// encoded column are equal strings; distinct ones compare their bytes.
int CompareColumnRows(const BatchColumn& col, size_t a, size_t b) {
  if (col.encoded()) {
    uint32_t ca = col.codes[a];
    uint32_t cb = col.codes[b];
    if (ca == cb) return 0;
    if (ca == StringDict::kNullCode) return -1;
    if (cb == StringDict::kNullCode) return 1;
    int c = col.dict->str(ca).compare(col.dict->str(cb));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return col.values[a].Compare(col.values[b]);
}

/// One chunk's private grouping + aggregation state (parallel fold).
struct ChunkFold {
  ChunkFold(const std::vector<const BatchColumn*>* keys, size_t expected)
      : grouper(keys, expected) {}
  BatchKeyGrouper grouper;
  std::vector<std::vector<WeightedAggState>> states;
  Status status;
};

Status RunAggregateTail(const BoundQuery& query, const TupleBatch& t,
                        const std::vector<int64_t>& slots, TaskPool* pool,
                        QueryResult* result) {
  size_t num_rows = t.num_rows();
  const std::vector<uint64_t>& weights = t.weights();
  size_t num_aggs = query.aggregates.size();

  std::vector<TailColumn> group_cols(query.group_by.size());
  for (size_t g = 0; g < query.group_by.size(); ++g) {
    BEAS_RETURN_NOT_OK(
        ResolveTailColumn(*query.group_by[g], t, slots, &group_cols[g]));
  }
  std::vector<TailColumn> agg_cols(num_aggs);
  std::vector<const BatchColumn*> agg_ptrs(num_aggs, nullptr);
  for (size_t i = 0; i < num_aggs; ++i) {
    if (query.aggregates[i].fn == AggFn::kCountStar) continue;
    BEAS_RETURN_NOT_OK(
        ResolveTailColumn(*query.aggregates[i].arg, t, slots, &agg_cols[i]));
    agg_ptrs[i] = &agg_cols[i].of(t);
  }
  std::vector<const BatchColumn*> key_ptrs;
  key_ptrs.reserve(group_cols.size());
  for (const TailColumn& col : group_cols) key_ptrs.push_back(&col.of(t));

  auto fold = [&](BatchKeyGrouper* grouper,
                  std::vector<std::vector<WeightedAggState>>* states,
                  size_t begin, size_t end) -> Status {
    for (size_t r = begin; r < end; ++r) {
      uint32_t gid = grouper->IdFor(r);
      if (gid == states->size()) states->emplace_back(num_aggs);
      std::vector<WeightedAggState>& gs = (*states)[gid];
      for (size_t i = 0; i < num_aggs; ++i) {
        Value v;
        if (agg_ptrs[i] != nullptr) v = agg_ptrs[i]->At(r);
        BEAS_RETURN_NOT_OK(
            AccumulateWeighted(query.aggregates[i], v, weights[r], &gs[i]));
      }
    }
    return Status::OK();
  };

  BatchKeyGrouper grouper(&key_ptrs, num_rows);
  std::vector<std::vector<WeightedAggState>> states;
  bool parallel = pool != nullptr && pool->num_threads() > 0 &&
                  num_rows >= kParallelTailThreshold &&
                  CanParallelFold(query.aggregates);
  if (!parallel) {
    BEAS_RETURN_NOT_OK(fold(&grouper, &states, 0, num_rows));
  } else {
    // Chunk-private folds run shard-parallel; the merge walks chunks in
    // row order, so global group ids appear in first-row order and the
    // result is bit-identical to the serial fold (CanParallelFold keeps
    // FP-accumulated aggregates off this path entirely).
    size_t chunks =
        std::min((num_rows + kTailChunk - 1) / kTailChunk,
                 4 * (pool->num_threads() + 1));
    size_t per = (num_rows + chunks - 1) / chunks;
    std::vector<std::unique_ptr<ChunkFold>> locals(chunks);
    pool->ParallelFor(chunks, [&](size_t c) {
      size_t begin = c * per;
      size_t end = std::min(num_rows, begin + per);
      if (begin >= end) return;
      locals[c] = std::make_unique<ChunkFold>(&key_ptrs, end - begin);
      locals[c]->status =
          fold(&locals[c]->grouper, &locals[c]->states, begin, end);
    });
    for (std::unique_ptr<ChunkFold>& local : locals) {
      if (local == nullptr) continue;
      BEAS_RETURN_NOT_OK(local->status);
      for (uint32_t g = 0; g < local->grouper.size(); ++g) {
        uint32_t gid = grouper.IdFor(local->grouper.first_row(g));
        if (gid == states.size()) states.emplace_back(num_aggs);
        for (size_t i = 0; i < num_aggs; ++i) {
          BEAS_RETURN_NOT_OK(MergeWeightedAggState(
              query.aggregates[i], std::move(local->states[g][i]),
              &states[gid][i]));
        }
      }
    }
  }
  TailRowsGrouped().fetch_add(num_rows, std::memory_order_relaxed);

  // Global aggregation over an empty T still yields one (empty-key) group.
  bool synthesized_group = false;
  if (query.group_by.empty() && grouper.size() == 0) {
    states.emplace_back(num_aggs);
    synthesized_group = true;
  }

  size_t num_groups = query.group_by.size();
  size_t total_groups = synthesized_group ? 1 : grouper.size();
  result->rows.reserve(total_groups);
  for (size_t gid = 0; gid < total_groups; ++gid) {
    Row agg_row;
    agg_row.reserve(num_groups + num_aggs);
    if (!synthesized_group) {
      size_t first = grouper.first_row(static_cast<uint32_t>(gid));
      for (const BatchColumn* col : key_ptrs) agg_row.push_back(col->At(first));
    }
    for (size_t i = 0; i < num_aggs; ++i) {
      BEAS_ASSIGN_OR_RETURN(
          Value v, FinalizeWeighted(query.aggregates[i], states[gid][i]));
      agg_row.push_back(std::move(v));
    }
    if (query.having) {
      BEAS_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*query.having, agg_row));
      if (!pass) continue;
    }
    Row out_row;
    out_row.reserve(query.outputs.size());
    for (const OutputItem& out : query.outputs) {
      size_t pos = out.agg == AggFn::kNone ? out.slot : num_groups + out.slot;
      out_row.push_back(agg_row[pos]);
    }
    result->rows.push_back(std::move(out_row));
  }
  SortRowsAndLimit(query, &result->rows);
  return Status::OK();
}

Status RunProjectionTail(const BoundQuery& query, const TupleBatch& t,
                         const std::vector<int64_t>& slots,
                         QueryResult* result) {
  size_t num_rows = t.num_rows();
  const std::vector<uint64_t>& weights = t.weights();

  std::vector<TailColumn> out_cols(query.outputs.size());
  std::vector<const BatchColumn*> out_ptrs;
  out_ptrs.reserve(query.outputs.size());
  for (size_t i = 0; i < query.outputs.size(); ++i) {
    BEAS_RETURN_NOT_OK(
        ResolveTailColumn(*query.outputs[i].expr, t, slots, &out_cols[i]));
    out_ptrs.push_back(&out_cols[i].of(t));
  }

  auto materialize = [&](size_t r) {
    Row row;
    row.reserve(out_ptrs.size());
    for (const BatchColumn* col : out_ptrs) row.push_back(col->At(r));
    return row;
  };

  if (query.distinct) {
    // DISTINCT ignores weights; dedup on the output columns in
    // first-appearance order, materializing one row per group.
    BatchKeyGrouper grouper(&out_ptrs, num_rows);
    for (size_t r = 0; r < num_rows; ++r) grouper.IdFor(r);
    TailRowsGrouped().fetch_add(num_rows, std::memory_order_relaxed);
    result->rows.reserve(grouper.size());
    for (uint32_t g = 0; g < grouper.size(); ++g) {
      result->rows.push_back(materialize(grouper.first_row(g)));
    }
    SortRowsAndLimit(query, &result->rows);
    return Status::OK();
  }

  // Bag expansion by weight, as row indices — rows materialize only after
  // the sort decided which of them survive the LIMIT.
  std::vector<uint32_t> idx;
  {
    size_t total = 0;
    for (size_t r = 0; r < num_rows; ++r) total += weights[r];
    idx.reserve(total);
  }
  for (size_t r = 0; r < num_rows; ++r) {
    for (uint64_t w = 0; w < weights[r]; ++w) {
      idx.push_back(static_cast<uint32_t>(r));
    }
  }
  if (!query.order_by.empty()) {
    std::stable_sort(idx.begin(), idx.end(),
                     [&](uint32_t a, uint32_t b) {
                       for (const BoundOrderItem& item : query.order_by) {
                         int c = CompareColumnRows(*out_ptrs[item.output_index],
                                                   a, b);
                         if (c != 0) return item.asc ? c < 0 : c > 0;
                       }
                       return false;
                     });
  }
  size_t take = idx.size();
  if (query.limit.has_value() &&
      take > static_cast<size_t>(*query.limit)) {
    take = static_cast<size_t>(*query.limit);
  }
  result->rows.reserve(take);
  for (size_t i = 0; i < take; ++i) result->rows.push_back(materialize(idx[i]));
  return Status::OK();
}

}  // namespace

void SortRowsAndLimit(const BoundQuery& query, std::vector<Row>* rows) {
  if (!query.order_by.empty()) {
    std::stable_sort(rows->begin(), rows->end(),
                     [&query](const Row& a, const Row& b) {
                       for (const BoundOrderItem& item : query.order_by) {
                         int c = a[item.output_index].Compare(
                             b[item.output_index]);
                         if (c != 0) return item.asc ? c < 0 : c > 0;
                       }
                       return false;
                     });
  }
  if (query.limit.has_value() &&
      rows->size() > static_cast<size_t>(*query.limit)) {
    rows->resize(static_cast<size_t>(*query.limit));
  }
}

Status RunColumnarTail(const BoundQuery& query, const TupleBatch& t,
                       const std::vector<int64_t>& slot_of_column,
                       TaskPool* pool, QueryResult* result) {
  BEAS_RETURN_NOT_OK(
      query.HasAggregates()
          ? RunAggregateTail(query, t, slot_of_column, pool, result)
          : RunProjectionTail(query, t, slot_of_column, result));
  TailBatchesTotal().fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace beas
