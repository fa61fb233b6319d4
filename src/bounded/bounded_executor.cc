#include "bounded/bounded_executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_map>

#include "bounded/columnar_tail.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/task_pool.h"
#include "expr/evaluator.h"

namespace beas {

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Remaining per-step budget. `capped` distinguishes "no budget" from an
/// exhausted one: an exhausted step serves zero keys (η shrinks to 0 for
/// the step) instead of silently over-fetching.
struct StepBudget {
  bool capped = false;
  uint64_t cap = 0;
};

StepBudget BudgetFor(const BoundedExecOptions& options,
                     const BoundedExecStats& stats) {
  StepBudget budget;
  if (options.fetch_budget == 0) return budget;
  budget.capped = true;
  budget.cap = options.fetch_budget > stats.tuples_fetched
                   ? options.fetch_budget - stats.tuples_fetched
                   : 0;
  return budget;
}

/// The IN-list expansion shape of a step's key sources.
struct ComboShape {
  std::vector<const std::vector<Value>*> lists;
  std::vector<size_t> list_sizes;
  size_t combos = 1;
};

ComboShape ShapeOf(const FetchStep& step) {
  ComboShape shape;
  for (const KeySource& src : step.key_sources) {
    if (src.kind == KeySource::Kind::kConstantList) {
      shape.lists.push_back(&src.list);
      shape.list_sizes.push_back(src.list.size());
      shape.combos *= src.list.size();
    }
  }
  return shape;
}

/// How many distinct keys justify sharding probes across the pool.
constexpr size_t kParallelProbeThreshold = 1024;

/// How many gathered output rows justify fanning a step's gather out
/// across the pool (sharded storage only).
constexpr size_t kParallelGatherThreshold = 4096;

/// Runs fn(begin, end) over contiguous chunks of [0, n), fanned across
/// `pool` (the caller participates); serial when the pool is null or the
/// range is small. Chunking a pure scatter is order-free, so results are
/// bit-identical to the serial loop.
void ParallelChunks(TaskPool* pool, size_t n, size_t min_chunk,
                    const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t workers = pool == nullptr ? 0 : pool->num_threads();
  if (workers == 0 || n <= min_chunk) {
    fn(0, n);
    return;
  }
  size_t chunks =
      std::min((n + min_chunk - 1) / min_chunk, 4 * (workers + 1));
  size_t per = (n + chunks - 1) / chunks;
  pool->ParallelFor(chunks, [&](size_t c) {
    size_t begin = c * per;
    size_t end = std::min(n, begin + per);
    if (begin < end) fn(begin, end);
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Fetch chain, vectorized path: columnar T, deduplicated probe keys in
// first-appearance order, batched (optionally sharded) index probes,
// gather-based join, compiled predicate programs, hash-based weighted
// dedup. Bit-identical to the row-at-a-time reference path that
// differential tests run (tests/support/reference_executor.h): rows,
// order, weights, η.
//
// With hash-partitioned storage (BEAS_SHARDS > 1) each step runs
// shard-parallel end to end: the probe batch partitions by AC-index
// sub-shard and executes shard groups on the pool, and the gather/hash
// scatter runs in chunks on the same pool. Every parallel piece writes to
// disjoint, caller-ordered slots, so the merged T is bit-identical to the
// serial (and single-shard) execution.
//
// String columns ride the dictionary-encoded path end to end: probe-key
// string constants are canonicalized into the probed table's dictionary
// once per step, key parts coming from T carry their source dictionary's
// precomputed hashes, and STRING output columns gather as uint32 code
// columns — the chain moves 4-byte codes and array-read hashes where it
// used to move std::strings and byte hashes. Representation never leaks
// into results: dictionary-backed and inline values hash and compare
// identically, so parity with the reference path is preserved.
// ---------------------------------------------------------------------------

Result<BoundedExecutor::BatchFragment> BoundedExecutor::ExecuteBatchFragment(
    const BoundQuery& query, const BoundedPlan& plan,
    const BoundedExecOptions& options) const {
  // Step programs: the caller's, or compiled on the fly when absent or
  // stale.
  const CompiledPlan* compiled = options.compiled;
  CompiledPlan local;
  if (compiled == nullptr || compiled->steps.size() != plan.steps.size()) {
    BEAS_ASSIGN_OR_RETURN(local, CompileBoundedPlan(query, plan, *catalog_));
    compiled = &local;
  }
  BatchFragment fragment;
  fragment.layout = plan.layout;
  fragment.stats.root.label = "BoundedFetchChain";
  // An empty result still carries the layout's arity: the columnar tail
  // borrows columns by slot, so the batch must be addressable even with
  // zero rows.
  fragment.batch = TupleBatch(plan.layout.size());

  Row empty_row;
  for (size_t ci : plan.initial_conjuncts) {
    BEAS_ASSIGN_OR_RETURN(bool pass,
                          EvalPredicate(*query.conjuncts[ci].expr, empty_row));
    if (!pass) return fragment;
  }
  if (plan.steps.empty() && !query.atoms.empty()) return fragment;

  // T starts as a single empty row of weight 1 (zero columns). Row hashes
  // are threaded through every gather so dedup never rehashes the parent
  // prefix of a row.
  TupleBatch t;
  t.set_num_rows(1);
  t.weights().assign(1, 1);
  t.mutable_hashes().assign(1, TupleBatch::kHashSeed);

  // Expiry latch, mirroring the reference path: polled at the same key
  // indices, and once observed every later step serves zero non-null keys.
  const ExecControl& control = options.control;
  bool expired = false;

  for (size_t si = 0; si < plan.steps.size(); ++si) {
    const FetchStep& step = plan.steps[si];
    const StepProgram& prog = compiled->steps[si];
    // Same deterministic step-boundary test hook as the reference path.
    (void)fail::Point("exec_step");
    auto step_start = std::chrono::steady_clock::now();
    OperatorStats step_stats;
    if (options.collect_stats) {
      step_stats.label =
          "fetch[" + step.constraint.name + " on " +
          query.atoms[step.atom].alias + "]";
    }

    StepBudget budget = BudgetFor(options, fragment.stats);

    // --- Phase A: build + dedup probe keys, first-appearance order. ---
    // Keys are materialized lazily: per-part hashes are precomputed
    // (constants once, IN-list elements once, T columns once per row), the
    // (row, combo) loop only combines them, and a ValueVec is built only
    // when a key turns out to be distinct. For a dictionary-backed table,
    // string constants are canonicalized into the table's dictionary up
    // front and string parts from T are canonicalized when a distinct key
    // is first seen — using hashes already in hand, so no byte hashing —
    // which keeps every downstream probe and gather on the code path.
    ComboShape shape = ShapeOf(step);
    size_t num_parts = step.key_sources.size();
    size_t num_lists = shape.lists.size();
    size_t raw_keys = t.num_rows() * shape.combos;
    const StringDict* dict = prog.dict;

    // Re-encodes `v` as a code of `dict` when possible; `h` is v's hash
    // (byte-identical across representations, so no rehash on success or
    // failure). A miss means the string occurs nowhere in the probed
    // table — the probe will find no bucket either way.
    auto canonicalize = [dict](const Value& v, uint64_t h) -> Value {
      if (dict == nullptr || v.type() != TypeId::kString ||
          v.dict() == dict) {
        return v;
      }
      int64_t code = dict->FindWithHash(v.AsString(), h);
      return code >= 0
                 ? Value::DictString(dict, static_cast<uint32_t>(code))
                 : v;
    };

    std::vector<Value> const_vals(num_parts);
    std::vector<std::vector<Value>> list_vals(num_lists);
    std::vector<uint64_t> part_const_hash(num_parts, 0);
    std::vector<std::vector<uint64_t>> part_list_hashes(num_lists);
    std::vector<std::vector<uint64_t>> part_col_hashes(num_parts);
    std::vector<int64_t> list_of_part(num_parts, -1);
    {
      size_t list_idx = 0;
      for (size_t k = 0; k < num_parts; ++k) {
        const KeySource& src = step.key_sources[k];
        switch (src.kind) {
          case KeySource::Kind::kConstant: {
            uint64_t h = src.constant.Hash();
            part_const_hash[k] = h;
            const_vals[k] = canonicalize(src.constant, h);
            break;
          }
          case KeySource::Kind::kConstantList: {
            list_of_part[k] = static_cast<int64_t>(list_idx);
            std::vector<uint64_t>& hashes = part_list_hashes[list_idx];
            std::vector<Value>& vals = list_vals[list_idx];
            hashes.reserve(src.list.size());
            vals.reserve(src.list.size());
            for (const Value& v : src.list) {
              uint64_t h = v.Hash();
              hashes.push_back(h);
              vals.push_back(canonicalize(v, h));
            }
            ++list_idx;
            break;
          }
          case KeySource::Kind::kFromT: {
            const BatchColumn& col = t.column(src.t_column);
            std::vector<uint64_t>& hashes = part_col_hashes[k];
            hashes.reserve(t.num_rows());
            for (size_t r = 0; r < t.num_rows(); ++r) {
              hashes.push_back(col.HashAt(r));
            }
            break;
          }
        }
      }
    }

    // The value of part k for the current (row, combo). Constants and
    // list elements are already canonical; T parts come out in their
    // source column's representation (canonicalized at key creation).
    std::vector<size_t> list_elem(num_lists, 0);
    auto part_value = [&](size_t k, size_t r) -> Value {
      const KeySource& src = step.key_sources[k];
      switch (src.kind) {
        case KeySource::Kind::kConstant:
          return const_vals[k];
        case KeySource::Kind::kConstantList:
          return list_vals[static_cast<size_t>(list_of_part[k])]
                          [list_elem[static_cast<size_t>(list_of_part[k])]];
        case KeySource::Kind::kFromT:
        default:
          return t.column(src.t_column).At(r);
      }
    };
    // Equality of a stored key part against the current (row, combo)
    // part, without materializing the latter: O(1) for encoded columns.
    auto part_equals = [&](const Value& stored, size_t k, size_t r) -> bool {
      const KeySource& src = step.key_sources[k];
      switch (src.kind) {
        case KeySource::Kind::kConstant:
          return stored.Equals(const_vals[k]);
        case KeySource::Kind::kConstantList:
          return stored.Equals(
              list_vals[static_cast<size_t>(list_of_part[k])]
                       [list_elem[static_cast<size_t>(list_of_part[k])]]);
        case KeySource::Kind::kFromT:
        default: {
          const BatchColumn& col = t.column(src.t_column);
          if (col.encoded()) {
            uint32_t code = col.codes[r];
            if (stored.is_null()) return code == TupleBatch::kNullCode;
            return stored.dict() == col.dict && code != TupleBatch::kNullCode &&
                   stored.dict_code() == code;
          }
          return stored.Equals(col.values[r]);
        }
      }
    };
    // Hash of part k for (row, combo), read from the precomputed tables.
    auto part_hash = [&](size_t k, size_t r) -> uint64_t {
      const KeySource& src = step.key_sources[k];
      switch (src.kind) {
        case KeySource::Kind::kConstant:
          return part_const_hash[k];
        case KeySource::Kind::kConstantList:
          return part_list_hashes[static_cast<size_t>(list_of_part[k])]
                                 [list_elem[static_cast<size_t>(
                                     list_of_part[k])]];
        case KeySource::Kind::kFromT:
        default:
          return part_col_hashes[k][r];
      }
    };

    std::vector<uint32_t> key_ids;
    key_ids.reserve(raw_keys);
    // Distinct keys, two views: `distinct_keys` preserves each part's
    // source representation (what dedup equality runs against) and
    // `probe_keys` is the dictionary-canonical form handed to the index
    // and the gather. They share storage unless a T string part actually
    // needed re-encoding.
    std::vector<ValueVec> distinct_keys;
    std::vector<ValueVec> probe_keys;
    std::vector<uint64_t> key_hashes;
    std::vector<char> key_has_null;
    bool canonicalize_t_parts = false;
    if (dict != nullptr) {
      for (const KeySource& src : step.key_sources) {
        canonicalize_t_parts |= src.kind == KeySource::Kind::kFromT;
      }
    }

    size_t table_cap = HashTableCapacity(raw_keys * 2);
    size_t table_mask = table_cap - 1;
    std::vector<uint32_t> slots(table_cap, UINT32_MAX);

    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (size_t combo = 0; combo < shape.combos; ++combo) {
        size_t rem = combo;
        for (size_t li = 0; li < num_lists; ++li) {
          list_elem[li] = rem % shape.list_sizes[li];
          rem /= shape.list_sizes[li];
        }
        uint64_t h = kValueVecHashSeed;
        for (size_t k = 0; k < num_parts; ++k) {
          HashCombine(&h, part_hash(k, r));
        }
        size_t slot = static_cast<size_t>(h) & table_mask;
        uint32_t id;
        for (;;) {
          uint32_t other = slots[slot];
          if (other == UINT32_MAX) {
            id = static_cast<uint32_t>(distinct_keys.size());
            slots[slot] = id;
            ValueVec key;
            key.reserve(num_parts);
            bool has_null = false;
            for (size_t k = 0; k < num_parts; ++k) {
              Value v = part_value(k, r);
              has_null |= v.is_null();
              key.push_back(std::move(v));
            }
            if (canonicalize_t_parts) {
              ValueVec canon;
              canon.reserve(num_parts);
              for (size_t k = 0; k < num_parts; ++k) {
                canon.push_back(canonicalize(key[k], part_hash(k, r)));
              }
              probe_keys.push_back(std::move(canon));
            }
            distinct_keys.push_back(std::move(key));
            key_hashes.push_back(h);
            key_has_null.push_back(has_null ? 1 : 0);
            break;
          }
          if (key_hashes[other] == h) {
            const ValueVec& stored = distinct_keys[other];
            bool equal = true;
            for (size_t k = 0; k < num_parts && equal; ++k) {
              equal = part_equals(stored[k], k, r);
            }
            if (equal) {
              id = other;
              break;
            }
          }
          slot = (slot + 1) & table_mask;
        }
        key_ids.push_back(id);
      }
    }
    // The canonical view the index probes and the gather reads from.
    const std::vector<ValueVec>& canon_keys =
        canonicalize_t_parts ? probe_keys : distinct_keys;

    // --- Phase B: probe distinct keys (batched; sharded when large). ---
    size_t nkeys = distinct_keys.size();
    std::vector<AcIndex::BucketView> buckets(nkeys);
    std::vector<char> served(nkeys, 0);
    uint64_t fetched_this_step = 0;
    size_t served_count = 0;
    const AcIndex* index = prog.index;

    if (!budget.capped && !control.active()) {
      // Exact evaluation: every key is served; probe the whole batch.
      // With a sharded index (BEAS_SHARDS > 1) the batch is partitioned
      // by sub-index and the shard groups execute on the pool — each
      // worker walks one sub-index (locality) and scatters results into
      // the caller-ordered slots, so the merge is deterministic by
      // construction. A single-shard index keeps the pre-sharding
      // behavior: chunked fan-out for large key sets, serial otherwise.
      // NULL-bearing keys resolve to empty buckets inside LookupBatch and
      // are excluded from probe accounting below, like the reference path.
      // Keys are the canonical (dictionary-encoded) view, so string
      // components hash by stored code — zero byte hashing inside the
      // probe loop.
      TaskPool* pool = options.probe_pool;
      if (prog.index_shards > 1) {
        index->LookupBatch(canon_keys.data(), nkeys, buckets.data(), pool);
      } else if (pool != nullptr && pool->num_threads() > 0 &&
                 nkeys >= kParallelProbeThreshold) {
        size_t shard = std::max<size_t>(
            512, nkeys / (4 * (pool->num_threads() + 1)));
        size_t num_shards = (nkeys + shard - 1) / shard;
        pool->ParallelFor(num_shards, [&](size_t s) {
          size_t begin = s * shard;
          size_t end = std::min(nkeys, begin + shard);
          index->LookupBatch(&canon_keys[begin], end - begin,
                             &buckets[begin]);
        });
      } else {
        index->LookupBatch(canon_keys.data(), nkeys, buckets.data());
      }
      served_count = nkeys;
      for (size_t i = 0; i < nkeys; ++i) {
        served[i] = 1;
        if (key_has_null[i]) continue;
        ++fragment.stats.keys_probed;
        fetched_this_step += buckets[i].size();
        fragment.stats.tuples_fetched += buckets[i].size();
      }
    } else {
      // Budgeted and/or deadline-controlled: serve keys in order until the
      // cap is hit or expiry is observed (either serves zero from there
      // on); inherently sequential — which is also what keeps the expiry
      // check schedule identical to the reference path's.
      for (size_t i = 0; i < nkeys; ++i) {
        if (control.active() && !expired &&
            i % ExecControl::kExpiryCheckInterval == 0) {
          expired = control.Expired();
        }
        if (key_has_null[i]) {
          served[i] = 1;
          ++served_count;
          continue;
        }
        if (expired) continue;  // unserved, like an exhausted budget
        if (budget.capped && fetched_this_step >= budget.cap) {
          continue;  // unserved
        }
        buckets[i] = index->LookupWithCounts(canon_keys[i]);
        ++fragment.stats.keys_probed;
        fetched_this_step += buckets[i].size();
        fragment.stats.tuples_fetched += buckets[i].size();
        served[i] = 1;
        ++served_count;
      }
    }
    if (nkeys > 0) {
      fragment.stats.eta *= static_cast<double>(served_count) /
                            static_cast<double>(nkeys);
    }

    // --- Phase C: gather-join T with the fetched partial tuples. ---
    size_t out_count = 0;
    for (uint32_t id : key_ids) {
      if (served[id]) out_count += buckets[id].size();
    }

    std::vector<uint32_t> src_row;
    std::vector<uint32_t> src_kid;
    std::vector<uint32_t> src_b;
    src_row.reserve(out_count);
    src_kid.reserve(out_count);
    src_b.reserve(out_count);
    std::vector<uint64_t> new_weights;
    new_weights.reserve(out_count);

    size_t flat = 0;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      uint64_t w = t.weights()[r];
      for (size_t combo = 0; combo < shape.combos; ++combo) {
        uint32_t id = key_ids[flat++];
        if (!served[id]) continue;
        const AcIndex::BucketView& bucket = buckets[id];
        for (size_t b = 0; b < bucket.size(); ++b) {
          src_row.push_back(static_cast<uint32_t>(r));
          src_kid.push_back(id);
          src_b.push_back(static_cast<uint32_t>(b));
          new_weights.push_back(w * bucket.multiplicity(b));
        }
      }
    }

    TupleBatch next(t.num_columns() + step.added_columns.size());
    next.set_num_rows(out_count);
    next.weights() = std::move(new_weights);
    // Sharded storage fans the gather itself out across the pool: every
    // loop below is a pure scatter indexed by output row, so chunking it
    // changes nothing about the result. Null on the serial path (and for
    // single-shard indices, which keep the pre-sharding loops).
    TaskPool* gather_pool =
        (!expired && prog.index_shards > 1 && options.probe_pool != nullptr &&
         options.probe_pool->num_threads() > 0 &&
         out_count >= kParallelGatherThreshold)
            ? options.probe_pool
            : nullptr;
    constexpr size_t kGatherChunk = 4096;
    // Row hash = parent row hash folded with the added values, column by
    // column — same fold ComputeHashes would run, without rehashing the
    // parent prefix.
    std::vector<uint64_t>& next_hashes = next.mutable_hashes();
    next_hashes.resize(out_count);
    {
      const std::vector<uint64_t>& parent_hashes = t.hashes();
      ParallelChunks(gather_pool, out_count, kGatherChunk,
                     [&](size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                         next_hashes[i] = parent_hashes[src_row[i]];
                       }
                     });
    }
    // Parent columns: encoded columns gather 4-byte codes, generic ones
    // gather Values.
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const BatchColumn& src = t.column(c);
      BatchColumn& dst = next.column(c);
      if (src.encoded()) {
        dst.dict = src.dict;
        dst.codes.resize(out_count);
        ParallelChunks(gather_pool, out_count, kGatherChunk,
                       [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           dst.codes[i] = src.codes[src_row[i]];
                         }
                       });
      } else if (gather_pool != nullptr) {
        dst.values.resize(out_count);
        ParallelChunks(gather_pool, out_count, kGatherChunk,
                       [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           dst.values[i] = src.values[src_row[i]];
                         }
                       });
      } else {
        dst.values.reserve(out_count);
        for (size_t i = 0; i < out_count; ++i) {
          dst.values.push_back(src.values[src_row[i]]);
        }
      }
    }
    // Added columns, gathered straight from the index cells. STRING
    // columns of a dictionary-backed table land as code columns: a STRING
    // cell already is a code of the table's dictionary, and probe keys
    // were canonicalized in Phase A, so encoding is a field read. Any other
    // cell becomes a Value of its column's type.
    for (size_t a = 0; a < step.added_columns.size(); ++a) {
      const StepProgram::OutSource& osrc = prog.out_sources[a];
      BatchColumn& dst = next.column(t.num_columns() + a);
      const size_t pos = osrc.pos;
      if (osrc.out_dict != nullptr) {
        const StringDict* out_dict = osrc.out_dict;
        assert(osrc.from_key || out_dict == index->dict());
        dst.dict = out_dict;
        dst.codes.resize(out_count);
        ParallelChunks(gather_pool, out_count, kGatherChunk,
                       [&](size_t begin, size_t end) {
                         for (size_t i = begin; i < end; ++i) {
                           uint32_t code = TupleBatch::kNullCode;
                           if (osrc.from_key) {
                             // Keys that found a bucket are canonical.
                             const Value& v = canon_keys[src_kid[i]][pos];
                             assert(v.is_null() || v.dict() == out_dict);
                             if (!v.is_null()) code = v.dict_code();
                           } else {
                             const AcIndex::BucketView& bucket =
                                 buckets[src_kid[i]];
                             if (!bucket.IsNull(src_b[i], pos)) {
                               code = static_cast<uint32_t>(
                                   bucket.cell(src_b[i], pos));
                             }
                           }
                           dst.codes[i] = code;
                           HashCombine(&next_hashes[i],
                                       code == TupleBatch::kNullCode
                                           ? kNullValueHash
                                           : out_dict->hash(code));
                         }
                       });
      } else {
        auto value_at = [&](size_t i) -> Value {
          return osrc.from_key ? canon_keys[src_kid[i]][pos]
                               : buckets[src_kid[i]].Y(src_b[i], pos);
        };
        if (gather_pool != nullptr) {
          dst.values.resize(out_count);
          ParallelChunks(gather_pool, out_count, kGatherChunk,
                         [&](size_t begin, size_t end) {
                           for (size_t i = begin; i < end; ++i) {
                             dst.values[i] = value_at(i);
                             HashCombine(&next_hashes[i],
                                         dst.values[i].Hash());
                           }
                         });
        } else {
          dst.values.reserve(out_count);
          for (size_t i = 0; i < out_count; ++i) {
            dst.values.push_back(value_at(i));
            HashCombine(&next_hashes[i], dst.values.back().Hash());
          }
        }
      }
    }
    t = std::move(next);

    // --- Apply the conjuncts that just became evaluable. ---
    // Runs even on an empty T so rebind failures surface exactly like the
    // reference path's.
    if (!step.conjuncts_after.empty()) {
      std::vector<char> keep(t.num_rows(), 1);
      // Built on demand, once per step, for interpreted fallbacks only.
      std::unordered_map<size_t, size_t> fallback_mapping;
      for (size_t k = 0; k < step.conjuncts_after.size(); ++k) {
        size_t ci = step.conjuncts_after[k];
        const std::optional<ExprProgram>& cp = prog.conjunct_programs[k];
        bool evaluated = false;
        if (cp.has_value()) {
          Result<std::vector<Value>> lits =
              cp->BindLiterals(*query.conjuncts[ci].expr);
          if (lits.ok()) {
            cp->FilterBatch(t.columns().data(), t.num_rows(), *lits, &keep);
            evaluated = true;
          }
        }
        if (!evaluated) {
          // Interpreted fallback (not compilable, or an instance whose
          // literal shape diverged): rebind against the current layout
          // and tree-walk the surviving rows.
          if (fallback_mapping.empty()) {
            fallback_mapping.insert(prog.layout_pairs.begin(),
                                    prog.layout_pairs.end());
          }
          ExprPtr rebound =
              RebindColumns(query.conjuncts[ci].expr, fallback_mapping);
          if (!rebound) {
            return Status::Internal("rebind failed for conjunct " +
                                    query.conjuncts[ci].ToString());
          }
          for (size_t r = 0; r < t.num_rows(); ++r) {
            if (!keep[r]) continue;
            BEAS_ASSIGN_OR_RETURN(bool pass,
                                  EvalPredicate(*rebound, t.GetRow(r)));
            if (!pass) keep[r] = 0;
          }
        }
      }
      t.Filter(keep);
    }

    // --- Weighted dedup on precomputed row hashes. ---
    t.DedupMergeWeights();

    if (options.collect_stats) {
      step_stats.rows_out = t.num_rows();
      step_stats.tuples_accessed = fetched_this_step;
      step_stats.self_millis = MillisSince(step_start);
      step_stats.total_millis = step_stats.self_millis;
      fragment.stats.root.children.push_back(std::move(step_stats));
    }
  }

  fragment.batch = std::move(t);
  fragment.stats.timed_out = expired;
  for (const auto& child : fragment.stats.root.children) {
    fragment.stats.root.total_millis += child.total_millis;
  }
  fragment.stats.root.tuples_accessed = fragment.stats.tuples_fetched;
  fragment.stats.root.rows_out = fragment.batch.num_rows();
  return fragment;
}

Result<BoundedExecutor::Fragment> BoundedExecutor::ExecuteFragment(
    const BoundQuery& query, const BoundedPlan& plan,
    const BoundedExecOptions& options) const {
  BEAS_ASSIGN_OR_RETURN(BatchFragment bf,
                        ExecuteBatchFragment(query, plan, options));
  Fragment fragment;
  fragment.layout = std::move(bf.layout);
  fragment.stats = std::move(bf.stats);
  fragment.rows = bf.batch.ToRows();
  fragment.weights = std::move(bf.batch.weights());
  return fragment;
}

// ---------------------------------------------------------------------------
// Relational tail: Execute runs it columnar over the fetch chain's batch
// (bounded/columnar_tail.h) — compiled key/output programs, code-aware
// grouping, encoded-key sorts, no Row materialization.
// ---------------------------------------------------------------------------

namespace {

QueryResult EmptyResult(const BoundQuery& query) {
  QueryResult result;
  result.engine = "BEAS (bounded)";
  for (const OutputItem& out : query.outputs) {
    result.column_names.push_back(out.name);
    result.column_types.push_back(out.type);
  }
  return result;
}

}  // namespace

Result<QueryResult> BoundedExecutor::Execute(
    const BoundQuery& query, const BoundedPlan& plan,
    const BoundedExecOptions& options, BoundedExecStats* stats_out) const {
  auto start = std::chrono::steady_clock::now();
  BEAS_ASSIGN_OR_RETURN(BatchFragment bf,
                        ExecuteBatchFragment(query, plan, options));
  QueryResult result = EmptyResult(query);
  auto tail_start = std::chrono::steady_clock::now();
  std::vector<int64_t> slot_of_column(query.total_columns, -1);
  if (plan.steps.empty() && !query.atoms.empty()) {
    // Unsatisfiable plan: T is empty and has no layout. The tail runs over
    // an empty batch with a slot per query column, which answers a global
    // aggregate's one empty-input row (HAVING applied) and nothing else.
    bf.batch = TupleBatch(query.total_columns);
    for (size_t c = 0; c < query.total_columns; ++c) {
      slot_of_column[c] = static_cast<int64_t>(c);
    }
  } else {
    for (size_t p = 0; p < bf.layout.size(); ++p) {
      slot_of_column[query.GlobalIndex(bf.layout[p])] =
          static_cast<int64_t>(p);
    }
  }
  // The tail never truncates — its input T is final and dropping tail
  // work would make the reported η dishonest — but an expired query
  // sheds the fan-out: it has no claim on workers other queries need.
  TaskPool* tail_pool = bf.stats.timed_out ? nullptr : options.probe_pool;
  BEAS_RETURN_NOT_OK(
      RunColumnarTail(query, bf.batch, slot_of_column, tail_pool, &result));

  if (options.collect_stats) {
    OperatorStats tail;
    tail.label = "RelationalTail(columnar group/sort/limit)";
    tail.rows_out = result.rows.size();
    tail.self_millis = MillisSince(tail_start);
    tail.total_millis = tail.self_millis;

    result.stats = bf.stats.root;
    result.stats.label = "BEAS BoundedPlan";
    result.stats.children.push_back(std::move(tail));
    result.stats.rows_out = result.rows.size();
    result.plan_text = plan.ToString(query);
  }
  result.tuples_accessed = bf.stats.tuples_fetched;
  result.millis = MillisSince(start);
  if (stats_out != nullptr) *stats_out = bf.stats;
  return result;
}

}  // namespace beas
