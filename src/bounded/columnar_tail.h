#ifndef BEAS_BOUNDED_COLUMNAR_TAIL_H_
#define BEAS_BOUNDED_COLUMNAR_TAIL_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "binder/bound_query.h"
#include "bounded/tuple_batch.h"
#include "common/result.h"
#include "engine/query_result.h"

namespace beas {

class TaskPool;

/// \name Tail telemetry (process-wide, queryable via beas_stats).
/// @{
/// Batches the columnar tail consumed (one per bounded execution).
std::atomic<uint64_t>& TailBatchesTotal();
/// Rows fed through the code-aware grouper (GROUP BY keys + DISTINCT
/// dedup), the unit of work the columnar tail saves a Row materialization
/// and a ValueVec allocation on.
std::atomic<uint64_t>& TailRowsGrouped();
/// @}

/// \brief ORDER BY over output positions (stable, Value::Compare), then
/// LIMIT.
/// The columnar tail sorts its grouped/DISTINCT outputs with it, and the
/// test-only reference tail sorts its rows with it, so ordering semantics
/// cannot drift between the two.
void SortRowsAndLimit(const BoundQuery& query, std::vector<Row>* rows);

/// \brief Runs a bounded query's relational tail — projection, weighted
/// GROUP BY aggregation, DISTINCT, HAVING, ORDER BY, LIMIT — directly
/// over the fetch chain's columnar TupleBatch, with no intermediate Row
/// materialization:
///
///  * GROUP BY keys, aggregate inputs and outputs resolve to batch
///    columns — borrowed directly for plain column references (the
///    overwhelmingly common shape), or computed once per batch through a
///    compiled ExprProgram for anything else;
///  * grouping runs on a code-aware grouper: dictionary-encoded key
///    columns hash and compare raw uint32 codes, generic columns hash
///    unboxed Values in place — no per-row ValueVec keys, no Row copies;
///  * weighted aggregate states fold per chunk and, when a TaskPool is
///    provided, the batch is large and every aggregate merges exactly
///    (CanParallelFold), chunks fold shard-parallel with a deterministic
///    in-order merge — group ids still appear in first-row order, so
///    results are bit-identical to the serial fold;
///  * ORDER BY on the bag-expansion path sorts row *indices* by column
///    comparators — dictionary-encoded keys compare equal codes without
///    touching bytes — and only the post-LIMIT survivors materialize.
///
/// `slot_of_column` maps every global column index of `query` to its T
/// slot (-1 = not produced). Every bound tail compiles against the layout
/// of the plan that produced `t` (asserted; an Internal error without
/// asserts). On success `result->rows` is complete, including ORDER BY
/// and LIMIT, and bit-identical to the row-at-a-time reference tail's
/// output.
Status RunColumnarTail(const BoundQuery& query, const TupleBatch& t,
                       const std::vector<int64_t>& slot_of_column,
                       TaskPool* pool, QueryResult* result);

}  // namespace beas

#endif  // BEAS_BOUNDED_COLUMNAR_TAIL_H_
