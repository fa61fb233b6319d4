#ifndef BEAS_ASX_AC_INDEX_H_
#define BEAS_ASX_AC_INDEX_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "asx/access_constraint.h"
#include "common/result.h"
#include "storage/table_heap.h"

namespace beas {

class TaskPool;

/// \brief The "modified hash index" of an access constraint (paper §3):
/// the key is the X-projection of a tuple; each key maps to the bucket
/// D_Y(X = ā) of distinct Y-projections.
///
/// Buckets store *partial tuples* (Y-projections only) — fetching through
/// this index is what gives BEAS its "reduced redundancy" property (§1
/// feature 2): no duplicated Y values, no unused attributes.
///
/// The index is incrementally maintainable (paper §3 maintenance module):
/// each bucket keeps a multiplicity count per distinct Y-value, so inserts
/// and deletes are O(1) expected, independent of |D|.
///
/// Rows whose X-projection contains NULL are not indexed (SQL equality
/// never matches NULL keys).
///
/// ## Hash sharding
///
/// The index is partitioned into the same number of shards as the heap it
/// was built over: a key lives in sub-index `hash(key) % num_shards()`.
/// Each bucket lives entirely in one sub-index, and per-key maintenance
/// order equals the caller's write order, so bucket contents — and hence
/// every fetched Y order downstream — are bit-identical across shard
/// counts. `LookupBatch` with a TaskPool partitions a deduplicated probe
/// set by sub-index and probes the shards in parallel, writing each
/// result into its caller-assigned slot (results therefore come back in
/// the caller's first-appearance key order, merge-free). Maintenance
/// (OnInsert/OnDelete) takes a per-sub-index mutex so writers whose rows
/// hash to different heap shards — serialized only per shard by Database
/// — may maintain one index concurrently; lookups never lock (readers are
/// excluded from all writers by the per-shard lock table).
///
/// ## Dictionary-encoded string keys
///
/// Keys and buckets are projections of heap rows, and the heap interns
/// every string at insert — so for a table with a dictionary, the stored
/// X-keys are effectively *code vectors*: hashing a string component
/// reads the dictionary's precomputed hash (zero byte hashing per probe)
/// and equality against another value of the same dictionary is a uint32
/// compare. Callers who probe with ad-hoc (inline) strings still get
/// byte-correct answers — hashes agree across representations — but the
/// bounded executor canonicalizes probe keys into this dictionary first
/// (see dict()) to stay on the O(1) path. Codes are not order-preserving;
/// this index is hash/equality only, so no ordering guarantee is needed
/// here — range and ORDER BY consumers decode at the comparison
/// (Value::Compare).
class AcIndex {
 public:
  /// Builds the index over all live rows of `heap` (walked in global
  /// insertion order — shard-count invariant). The declared bound
  /// `constraint.limit_n` is NOT enforced here: the index always stores
  /// every distinct Y-value so query answers stay exact; conformance is
  /// checked separately (see conformance.h) and exposed via Conforms().
  static Result<std::unique_ptr<AcIndex>> Build(AccessConstraint constraint,
                                                const TableHeap& heap);

  /// Returns the bucket for `key` (X-projection values, in x_attrs order),
  /// or nullptr if no tuple has this X-value. The returned rows are the
  /// distinct Y-projections, arity |Y|.
  const std::vector<Row>* Lookup(const ValueVec& key) const;

  /// \brief A bucket with per-Y multiplicities.
  ///
  /// `multiplicities[i]` is the number of base tuples projecting to
  /// `rows[i]` — the bag weight of the partial tuple. BEAS fetches only
  /// distinct partial tuples (paper feature 2, "reduced redundancy") yet
  /// stays exact for SQL bag semantics (COUNT/SUM/AVG) by carrying these
  /// weights through joins.
  struct BucketView {
    const std::vector<Row>* rows = nullptr;
    const std::vector<size_t>* multiplicities = nullptr;
    size_t size() const { return rows == nullptr ? 0 : rows->size(); }
  };

  /// Lookup returning Y-projections together with their multiplicities.
  BucketView LookupWithCounts(const ValueVec& key) const;

  /// \brief Batched probe: resolves `count` keys into `out[0..count)`.
  /// A tight find loop per sub-index; the batching win lives in the
  /// caller, which deduplicates the raw (row × combo) fan-out to distinct
  /// keys before probing. Keys containing NULL resolve to the empty
  /// bucket (NULL X-values are never indexed). Read-only and safe to call
  /// concurrently from several shards of one key set.
  void LookupBatch(const ValueVec* keys, size_t count, BucketView* out) const;

  /// Shard-routed batched probe: partitions the keys by sub-index and
  /// probes each shard's group as one unit — on `pool` when provided
  /// (shard-parallel, the fan-out grain of the sharded fetch chain),
  /// serially otherwise (still per-shard grouped for locality). Each
  /// result lands in its key's slot of `out`, so the merged answer is in
  /// the caller's key order regardless of shard schedule.
  void LookupBatch(const ValueVec* keys, size_t count, BucketView* out,
                   TaskPool* pool) const;

  /// Incremental maintenance on tuple insert (locks the key's sub-index).
  void OnInsert(const Row& row);

  /// Incremental maintenance on tuple delete (locks the key's sub-index).
  void OnDelete(const Row& row);

  const AccessConstraint& constraint() const { return constraint_; }

  /// The indexed table's string dictionary (nullptr when the table has no
  /// STRING columns or interning is off). Probe keys whose string
  /// components are backed by this dictionary hash and compare in O(1).
  const StringDict* dict() const { return dict_; }

  /// Patches the declared bound (maintenance module's periodic adjustment;
  /// the index structure itself is bound-agnostic).
  void set_limit(uint64_t n) { constraint_.limit_n = n; }

  /// Number of hash shards (sub-indexes).
  size_t num_shards() const { return shards_.size(); }

  /// Number of distinct X-keys.
  size_t NumKeys() const;

  /// Total number of distinct (X, Y) entries.
  size_t NumEntries() const;

  /// Largest bucket (max distinct Y per X observed).
  size_t MaxBucketSize() const;

  /// True if every bucket is within the declared bound N.
  bool Conforms() const { return MaxBucketSize() <= constraint_.limit_n; }

  /// Rough memory footprint, for the discovery module's storage budget.
  uint64_t ApproxBytes() const;

  /// Extracts the X-projection of a full table row (the probe key).
  ValueVec KeyOf(const Row& row) const;

  /// Extracts the Y-projection of a full table row.
  Row YProjectionOf(const Row& row) const;

  /// \name Durability surface (checkpoint export / recovery restore).
  /// @{
  /// Visits every bucket: (key, distinct Y-projections, multiplicities).
  /// Bucket-internal vectors are in maintenance order (the order answers
  /// depend on); bucket visit order is hash-map order — irrelevant, since
  /// buckets are only ever addressed by key. Caller holds the structural
  /// lock exclusively.
  void ForEachBucket(
      const std::function<void(const ValueVec& key, const std::vector<Row>& ys,
                               const std::vector<size_t>& mults)>& fn) const;

  /// One checkpointed bucket, as parsed back from a segment.
  struct RestoredBucket {
    ValueVec key;
    std::vector<Row> ys;
    std::vector<size_t> mults;
  };

  /// Rebuilds an index from checkpointed cells instead of a heap walk:
  /// resolves columns and adopts `heap`'s dictionary like Build, then
  /// installs each bucket verbatim (same Y order, same multiplicities —
  /// the state incremental maintenance had reached at the checkpoint).
  /// Keys and Y-values must already be canonicalized against `heap`'s
  /// dictionary; sub-index routing is recomputed from the key hashes
  /// (deterministic, representation-independent).
  static Result<std::unique_ptr<AcIndex>> Restore(
      AccessConstraint constraint, const TableHeap& heap,
      std::vector<RestoredBucket> buckets);
  /// @}

 private:
  AcIndex(AccessConstraint constraint, std::vector<size_t> x_cols,
          std::vector<size_t> y_cols, size_t num_shards);

  struct Bucket {
    /// Distinct Y-projections, stable order for determinism.
    std::vector<Row> distinct_y;
    /// Multiplicity of each distinct Y-value, parallel to distinct_y.
    std::vector<size_t> mults;
    /// Y-value -> position in distinct_y.
    std::unordered_map<ValueVec, size_t, ValueVecHash, ValueVecEq> positions;
  };

  /// One hash partition of the key space.
  struct SubIndex {
    std::unordered_map<ValueVec, Bucket, ValueVecHash, ValueVecEq> buckets;
    size_t num_entries = 0;
    /// Writer-writer serialization only (see class comment).
    std::mutex write_mutex;
  };

  /// The sub-index `key` routes to. The modulo distributes the same
  /// 64-bit hash the sub-maps use, so routing is deterministic and free
  /// of representational bias (dictionary-backed and inline strings hash
  /// identically).
  size_t ShardOfKey(const ValueVec& key) const {
    if (shards_.size() == 1) return 0;
    return static_cast<size_t>(ValueVecHash{}(key) % shards_.size());
  }

  BucketView FindIn(const SubIndex& sub, const ValueVec& key) const;

  AccessConstraint constraint_;
  std::vector<size_t> x_cols_;
  std::vector<size_t> y_cols_;
  const StringDict* dict_ = nullptr;  ///< the indexed heap's dictionary
  std::vector<std::unique_ptr<SubIndex>> shards_;
};

}  // namespace beas

#endif  // BEAS_ASX_AC_INDEX_H_
