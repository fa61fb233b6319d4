#ifndef BEAS_EXEC_GROUPING_H_
#define BEAS_EXEC_GROUPING_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "binder/bound_query.h"
#include "common/result.h"
#include "types/value.h"

namespace beas {

/// \brief Incremental group index over ValueVec keys: assigns dense group
/// ids in first-appearance order using 64-bit hashes and open addressing.
/// The conventional AggregateExecutor groups with it (one hash per key, no
/// rehash on growth collisions, keys moved not copied).
class ValueVecGrouper {
 public:
  ValueVecGrouper();

  /// Returns the group id of `key` (existing or freshly assigned). The key
  /// is moved in only when new.
  size_t IdFor(ValueVec&& key);

  size_t size() const { return keys_.size(); }
  const std::vector<ValueVec>& keys() const { return keys_; }
  const ValueVec& key(size_t id) const { return keys_[id]; }

 private:
  void Grow();

  std::vector<ValueVec> keys_;         ///< group id -> key
  std::vector<uint64_t> key_hashes_;   ///< parallel to keys_
  std::vector<size_t> slots_;          ///< open-addressing table, kEmpty free
  size_t mask_ = 0;
};

/// \brief Hash/equality functors for single-Value keys in unordered
/// containers (DISTINCT-aggregate sets).
struct ValueHashFn {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEqFn {
  bool operator()(const Value& a, const Value& b) const { return a == b; }
};

/// \brief Accumulation state of one aggregate within one group, carrying
/// bag multiplicities as weights. The conventional executor accumulates
/// with weight 1 (its input is already bag-expanded); the bounded tails
/// fold the distinct-tuple weights BEAS's fetch chain maintains, which is
/// what keeps COUNT/SUM/AVG exact over deduplicated partial tuples.
struct WeightedAggState {
  uint64_t count = 0;
  /// Exact integer SUM: 128 bits hold any realistic Σ weight·v, so serial
  /// and chunk-parallel folds agree and only FinalizeWeighted decides
  /// whether the total fits in INT64 (NULL when not, like row-level `+`).
  /// `sum_overflow` latches the one case 128 bits cannot hold.
  __int128 sum_i = 0;
  bool sum_overflow = false;
  double sum_d = 0;
  Value min_max;
  bool has_value = false;
  /// Aggregate arguments are single values, so the DISTINCT set is keyed
  /// on Value directly — probing allocates nothing for the common
  /// duplicate case.
  std::unordered_set<Value, ValueHashFn, ValueEqFn> distinct;
};

/// Folds `v` (weight `weight`) into `state`. DISTINCT aggregates ignore
/// multiplicity by definition; NULL inputs are skipped (SQL).
Status AccumulateWeighted(const AggSpec& spec, const Value& v, uint64_t weight,
                          WeightedAggState* state);

/// Finalizes `state` into the aggregate's result value.
Result<Value> FinalizeWeighted(const AggSpec& spec,
                               const WeightedAggState& state);

/// Merges `src` into `dst` — the combine step of a chunk-parallel fold,
/// where each chunk accumulated its rows independently. Exact for counts,
/// integer sums, MIN/MAX and DISTINCT aggregates; callers gate
/// parallelism on CanParallelFold so floating-point accumulation order
/// (kAvg, double kSum) never reassociates.
Status MergeWeightedAggState(const AggSpec& spec, WeightedAggState&& src,
                             WeightedAggState* dst);

/// True when chunk-partitioned accumulation followed by
/// MergeWeightedAggState is bit-identical to the serial row-order fold
/// for every aggregate in `aggs`. False whenever a result is finalized
/// from the double accumulator (kAvg always; kSum with a double result),
/// whose addition order a parallel fold would reassociate.
bool CanParallelFold(const std::vector<AggSpec>& aggs);

}  // namespace beas

#endif  // BEAS_EXEC_GROUPING_H_
