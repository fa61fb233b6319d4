#include "exec/grouping.h"

#include <limits>

#include "common/hash.h"

namespace beas {

namespace {

constexpr size_t kEmptySlot = std::numeric_limits<size_t>::max();

}  // namespace

ValueVecGrouper::ValueVecGrouper() : slots_(16, kEmptySlot), mask_(15) {}

size_t ValueVecGrouper::IdFor(ValueVec&& key) {
  if (keys_.size() * 2 >= slots_.size()) Grow();
  uint64_t h = ValueVecHash{}(key);
  size_t slot = static_cast<size_t>(h) & mask_;
  for (;;) {
    size_t id = slots_[slot];
    if (id == kEmptySlot) {
      slots_[slot] = keys_.size();
      keys_.push_back(std::move(key));
      key_hashes_.push_back(h);
      return keys_.size() - 1;
    }
    if (key_hashes_[id] == h && ValueVecEq{}(keys_[id], key)) return id;
    slot = (slot + 1) & mask_;
  }
}

void ValueVecGrouper::Grow() {
  size_t capacity = slots_.size() * 2;
  mask_ = capacity - 1;
  slots_.assign(capacity, kEmptySlot);
  for (size_t id = 0; id < keys_.size(); ++id) {
    size_t slot = static_cast<size_t>(key_hashes_[id]) & mask_;
    while (slots_[slot] != kEmptySlot) slot = (slot + 1) & mask_;
    slots_[slot] = id;
  }
}

Status AccumulateWeighted(const AggSpec& spec, const Value& v, uint64_t weight,
                          WeightedAggState* state) {
  if (spec.fn == AggFn::kCountStar) {
    state->count += weight;
    return Status::OK();
  }
  if (v.is_null()) return Status::OK();
  if (spec.distinct) {
    // DISTINCT aggregates ignore multiplicity by definition.
    if (!state->distinct.insert(v).second) return Status::OK();
    weight = 1;
  }
  switch (spec.fn) {
    case AggFn::kCount:
      state->count += weight;
      break;
    case AggFn::kSum:
    case AggFn::kAvg:
      state->count += weight;
      if (v.type() != TypeId::kDouble) {
        __int128 term = 0;
        state->sum_overflow |=
            __builtin_mul_overflow(static_cast<__int128>(weight),
                                   static_cast<__int128>(v.AsInt64()), &term) ||
            __builtin_add_overflow(state->sum_i, term, &state->sum_i);
      }
      state->sum_d += static_cast<double>(weight) * v.AsDouble();
      break;
    case AggFn::kMin:
      if (!state->has_value || v.Compare(state->min_max) < 0) state->min_max = v;
      state->has_value = true;
      break;
    case AggFn::kMax:
      if (!state->has_value || v.Compare(state->min_max) > 0) state->min_max = v;
      state->has_value = true;
      break;
    default:
      return Status::Internal("bad aggregate function");
  }
  return Status::OK();
}

Result<Value> FinalizeWeighted(const AggSpec& spec,
                               const WeightedAggState& state) {
  switch (spec.fn) {
    case AggFn::kCountStar:
    case AggFn::kCount:
      return Value::Int64(static_cast<int64_t>(state.count));
    case AggFn::kSum:
      if (state.count == 0) return Value::Null();
      if (spec.result_type == TypeId::kDouble) {
        return Value::Double(state.sum_d);
      }
      if (state.sum_overflow ||
          state.sum_i < std::numeric_limits<int64_t>::min() ||
          state.sum_i > std::numeric_limits<int64_t>::max()) {
        return Value::Null();
      }
      return Value::Int64(static_cast<int64_t>(state.sum_i));
    case AggFn::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.sum_d / static_cast<double>(state.count));
    case AggFn::kMin:
    case AggFn::kMax:
      return state.has_value ? state.min_max : Value::Null();
    case AggFn::kNone:
      break;
  }
  return Status::Internal("bad aggregate function");
}

Status MergeWeightedAggState(const AggSpec& spec, WeightedAggState&& src,
                             WeightedAggState* dst) {
  if (spec.distinct) {
    // Re-accumulate src's distinct elements so dst's set (and the sums
    // derived from it) stays exact across the union. Set iteration order
    // cannot leak into results: counts and integer sums are
    // order-insensitive, and callers exclude FP-finalized aggregates
    // from parallel folds.
    for (const Value& elem : src.distinct) {
      BEAS_RETURN_NOT_OK(AccumulateWeighted(spec, elem, 1, dst));
    }
    return Status::OK();
  }
  switch (spec.fn) {
    case AggFn::kCountStar:
    case AggFn::kCount:
      dst->count += src.count;
      break;
    case AggFn::kSum:
    case AggFn::kAvg:
      dst->count += src.count;
      dst->sum_overflow |= src.sum_overflow ||
                           __builtin_add_overflow(dst->sum_i, src.sum_i,
                                                  &dst->sum_i);
      dst->sum_d += src.sum_d;
      break;
    case AggFn::kMin:
      if (src.has_value &&
          (!dst->has_value || src.min_max.Compare(dst->min_max) < 0)) {
        dst->min_max = std::move(src.min_max);
      }
      dst->has_value |= src.has_value;
      break;
    case AggFn::kMax:
      if (src.has_value &&
          (!dst->has_value || src.min_max.Compare(dst->min_max) > 0)) {
        dst->min_max = std::move(src.min_max);
      }
      dst->has_value |= src.has_value;
      break;
    case AggFn::kNone:
      return Status::Internal("bad aggregate function");
  }
  return Status::OK();
}

bool CanParallelFold(const std::vector<AggSpec>& aggs) {
  for (const AggSpec& spec : aggs) {
    if (spec.fn == AggFn::kAvg) return false;
    if (spec.fn == AggFn::kSum && spec.result_type == TypeId::kDouble) {
      return false;
    }
  }
  return true;
}

}  // namespace beas
