#ifndef BEAS_TESTS_SUPPORT_REFERENCE_EXECUTOR_H_
#define BEAS_TESTS_SUPPORT_REFERENCE_EXECUTOR_H_

#include "bounded/bounded_executor.h"

namespace beas {

/// \name Reference bounded executor (differential tests only).
/// A second, row-at-a-time evaluation of a bounded plan: a fetch chain over
/// Row containers and a scalar tail that tree-walks every expression. The
/// differential tests hold BoundedExecutor::Execute / ExecuteFragment to
/// its rows, row order, weights, η and probe counters, bit for bit. It
/// fills no column metadata or diagnostics, and ignores
/// `options.compiled` and `options.probe_pool`.
/// @{
Result<BoundedExecutor::Fragment> ReferenceFragment(
    const AsCatalog& catalog, const BoundQuery& query, const BoundedPlan& plan,
    const BoundedExecOptions& options = {});
Result<QueryResult> ExecuteReference(const AsCatalog& catalog,
                                     const BoundQuery& query,
                                     const BoundedPlan& plan,
                                     const BoundedExecOptions& options = {},
                                     BoundedExecStats* stats_out = nullptr);
/// @}

}  // namespace beas

#endif  // BEAS_TESTS_SUPPORT_REFERENCE_EXECUTOR_H_
