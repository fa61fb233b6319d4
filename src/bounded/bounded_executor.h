#ifndef BEAS_BOUNDED_BOUNDED_EXECUTOR_H_
#define BEAS_BOUNDED_BOUNDED_EXECUTOR_H_

#include <vector>

#include "asx/access_schema.h"
#include "binder/bound_query.h"
#include "bounded/bounded_plan.h"
#include "bounded/step_program.h"
#include "bounded/tuple_batch.h"
#include "common/exec_control.h"
#include "common/result.h"
#include "engine/query_result.h"

namespace beas {

class TaskPool;

/// \brief Execution knobs for bounded plans.
struct BoundedExecOptions {
  /// 0 = exact evaluation. When positive, resource-bounded approximation:
  /// each fetch step may consume whatever budget remains (in fetched
  /// tuples); once the budget is exhausted a step serves zero keys,
  /// unserved probe keys drop their rows, and the coverage lower bound η
  /// shrinks accordingly.
  uint64_t fetch_budget = 0;

  /// When false, skips the per-query diagnostic rendering — the plan text
  /// and the per-step operator breakdown with its labels and timers.
  /// Answers, counters (tuples_fetched / keys_probed / eta) and timings of
  /// the result itself are unaffected. The service layer's cached fast
  /// path uses this; the analysis UI and benches keep full telemetry.
  bool collect_stats = true;

  /// Optional precompiled step programs for `plan`'s template (cached by
  /// the service next to the plan skeleton). Null = compile on the fly.
  /// Must have been compiled from the same template as `plan`.
  const CompiledPlan* compiled = nullptr;

  /// Optional worker pool: large distinct-key sets of exact (un-budgeted)
  /// steps shard their index probes across it. Null = serial probes.
  /// Results are merged deterministically regardless.
  TaskPool* probe_pool = nullptr;

  /// Cooperative deadline/cancellation. When active, the fetch chain polls
  /// it at deterministic points (step boundaries and every
  /// ExecControl::kExpiryCheckInterval-th probe key, identical indices on
  /// the reference path); observed expiry behaves exactly like budget
  /// exhaustion — unserved keys drop their rows, η shrinks, the partial
  /// answer stays well-formed and bit-identical to the reference. An
  /// active control also forces sequential (un-fanned) probes so the
  /// check schedule is deterministic, and sheds TaskPool fan-out once
  /// expired.
  ExecControl control;
};

/// \brief Telemetry of a bounded execution.
struct BoundedExecStats {
  uint64_t tuples_fetched = 0;  ///< Σ bucket entries read (≤ deduced bound)
  uint64_t keys_probed = 0;     ///< distinct index probes
  double eta = 1.0;             ///< deterministic coverage lower bound
  bool timed_out = false;       ///< the ExecControl expired mid-chain
  OperatorStats root;           ///< per-fetch-step breakdown (Fig. 3)
};

/// \brief Executes bounded plans (paper §3, BE Plan Executor): each
/// fetch(X ∈ T, Y, R) probes the modified hash index of its access
/// constraint once per distinct X-value in the intermediate relation T,
/// joins the distinct Y-projections back into T, and applies every
/// selection that has just become evaluable.
///
/// Bag-semantics note: T rows carry weights (products of the per-Y
/// multiplicities stored in the indices), so COUNT/SUM/AVG and non-DISTINCT
/// projections are exact even though only distinct partial tuples are
/// fetched (see AcIndex::BucketView).
///
/// Execution is vectorized end to end: T is a columnar TupleBatch; probe
/// keys are deduplicated into first-appearance order, probed through
/// AcIndex::LookupBatch (sharded across a TaskPool when large), joined by
/// index-gather, filtered with compiled predicate programs, and
/// deduplicated by precomputed row hashes; the relational tail then runs
/// over the batch (bounded/columnar_tail.h). There is one tail: an
/// unsatisfiable plan runs it too, over an empty batch.
class BoundedExecutor {
 public:
  explicit BoundedExecutor(const AsCatalog* catalog) : catalog_(catalog) {}

  /// Runs the plan and the query's relational tail (projection /
  /// aggregation / DISTINCT / ORDER BY / LIMIT). `stats_out` is optional.
  Result<QueryResult> Execute(const BoundQuery& query, const BoundedPlan& plan,
                              const BoundedExecOptions& options = {},
                              BoundedExecStats* stats_out = nullptr) const;

  /// \brief A materialized bounded fragment: the final intermediate
  /// relation T (used by the partial-plan optimizer as a temp table).
  struct Fragment {
    std::vector<Row> rows;
    std::vector<uint64_t> weights;   ///< parallel to rows
    std::vector<AttrRef> layout;     ///< T column -> query attribute
    BoundedExecStats stats;
  };

  /// Runs only the fetch chain, returning T.
  Result<Fragment> ExecuteFragment(const BoundQuery& query,
                                   const BoundedPlan& plan,
                                   const BoundedExecOptions& options = {}) const;

 private:
  /// The vectorized fetch chain's product before any materialization: T
  /// as a columnar batch (string columns still dictionary-encoded). The
  /// columnar tail consumes this directly; Fragment consumers get it
  /// materialized through ToRows.
  struct BatchFragment {
    TupleBatch batch;
    std::vector<AttrRef> layout;     ///< T column -> query attribute
    BoundedExecStats stats;
  };

  /// The fetch chain, with compile-on-the-fly when `options.compiled` is
  /// absent or stale.
  Result<BatchFragment> ExecuteBatchFragment(
      const BoundQuery& query, const BoundedPlan& plan,
      const BoundedExecOptions& options) const;

  const AsCatalog* catalog_;
};

}  // namespace beas

#endif  // BEAS_BOUNDED_BOUNDED_EXECUTOR_H_
