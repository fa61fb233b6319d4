#ifndef BEAS_ASX_AC_INDEX_H_
#define BEAS_ASX_AC_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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
/// ## Cell layout
///
/// Every stored value is one packed 8-byte cell of the shared cell codec
/// (storage/cell_codec.h), read by its column's declared type: an INT or
/// DATE payload, the bits of a DOUBLE, or a code of the indexed heap's
/// string dictionary (codes never change for the life of the heap). The
/// heap stores its rows in the same codec, so Build copies X and Y cells
/// straight from the heap arena. Each sub-index holds:
///  * a key table — open addressing with linear probing over the 64-bit
///    key hash (ValueVecHash of the X-values), one 8-byte slot per key:
///    the hash's high 32 bits as a tag, and the key id;
///  * the key arena — |X| cells per key id, plus the key's bucket run
///    (offset, size, capacity) in the entry arena;
///  * the entry arena — each bucket is a contiguous run of entries; an
///    entry is |Y| cells followed by ⌈|Y|/64⌉ NULL-mask cells (bit j set
///    means Y column j is NULL, and its payload cell is 0), with its
///    32-bit multiplicity in a parallel array. A bucket that outgrows its run
///    moves to the arena's end; the arena is compacted once abandoned runs
///    outweigh live ones;
///  * the maintenance map — one open-addressing table from (key id,
///    Y-hash) to the entry's position inside its bucket, which is how
///    OnInsert/OnDelete find a Y-value in O(1).
/// Cell equality is Value equality: a DOUBLE cell matches -0.0 against
/// 0.0, and a probe value of another numeric type matches only where
/// Value::Equals and Value::Hash both agree (INT 7 finds DOUBLE 7.0, DOUBLE
/// 7.5 finds nothing in an INT column).
///
/// ## Order
///
/// Bucket order is maintenance order: a new distinct Y-value is appended,
/// and removing one moves the bucket's last entry into its place. Answers
/// depend on this order, so it is the same at every shard count. Keys sit
/// in the key arena in creation order, and an erased key's id is reused by
/// the next new key. ForEachBucket walks the key arena in that order and
/// Restore fills it in payload order, so a checkpoint restored and
/// serialized again gives the same bytes.
///
/// ## Hash sharding
///
/// The index is partitioned into the same number of shards as the heap it
/// was built over: a key lives in sub-index `hash(key) % num_shards()`.
/// `LookupBatch` with a TaskPool partitions a probe set by sub-index and
/// probes the shards in parallel, writing each result into its
/// caller-assigned slot (results come back in the caller's key order,
/// merge-free).
///
/// ## Thread-safety
///
/// Maintenance (OnInsert/OnDelete) takes a per-sub-index mutex, so writers
/// whose rows hash to different heap shards — serialized only per shard by
/// Database — may maintain one index concurrently. Lookups never lock:
/// readers must be excluded from *all* writers (the per-shard lock table
/// does this), because a write may grow or compact an arena and so move
/// the cells a BucketView points at. A BucketView is valid until the next
/// write to the index.
///
/// ## Strings
///
/// Rows handed to Build/OnInsert/OnDelete are rows of the indexed heap,
/// whose strings the heap has interned. Probe keys may carry inline
/// strings: LookupBatch resolves them through StringDict::FindWithHash
/// (an absent string matches nothing), and dictionary-backed keys hash by
/// the dictionary's precomputed hash — zero byte hashing per probe.
class AcIndex {
 public:
  /// One packed value (see "Cell layout" and storage/cell_codec.h).
  using Cell = ::beas::Cell;

  /// Builds the index over all live rows of `heap` (walked in global
  /// insertion order — shard-count invariant). The declared bound
  /// `constraint.limit_n` is NOT enforced here: the index always stores
  /// every distinct Y-value so query answers stay exact; conformance is
  /// checked separately (see conformance.h) and exposed via Conforms().
  static Result<std::unique_ptr<AcIndex>> Build(AccessConstraint constraint,
                                                const TableHeap& heap);

  /// \brief A bucket: its distinct Y-values, with per-Y multiplicities.
  ///
  /// `multiplicity(i)` is the number of base tuples projecting to Y-value
  /// i — the bag weight of the partial tuple. BEAS fetches only distinct
  /// partial tuples (paper feature 2, "reduced redundancy") yet stays
  /// exact for SQL bag semantics (COUNT/SUM/AVG) by carrying these weights
  /// through joins. A default-constructed view is the empty bucket.
  struct BucketView {
    const Cell* cells = nullptr;      ///< size() entries, stride cells each
    const uint32_t* mults = nullptr;  ///< parallel to the entries
    const AcIndex* index = nullptr;
    size_t count = 0;

    size_t size() const { return count; }
    uint64_t multiplicity(size_t i) const { return mults[i]; }
    /// True when column j (in y_attrs order) of Y-value i is NULL.
    bool IsNull(size_t i, size_t j) const {
      return CellIsNull(cells + i * index->y_stride_, index->y_types_.size(),
                        j);
    }
    /// The raw cell of column j of Y-value i (0 when NULL); a dictionary
    /// code for a STRING column.
    Cell cell(size_t i, size_t j) const {
      return cells[i * index->y_stride_ + j];
    }
    /// Column j of Y-value i as a Value of the column's declared type.
    Value Y(size_t i, size_t j) const;
    /// Y-value i as a row, arity |Y|.
    Row YRow(size_t i) const;
  };

  /// Single-key probe: the bucket for `key` (X-values in x_attrs order),
  /// empty if no tuple has this X-value.
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
  /// STRING columns). Probe keys whose string components are backed by
  /// this dictionary hash and compare in O(1).
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

  /// Bytes held by the index: the sum of the capacities of every arena
  /// and table. Kept as a running total by the writers, so reading it is
  /// O(1).
  uint64_t ApproxBytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// \name Durability surface (checkpoint export / recovery restore).
  /// @{
  /// Visits every bucket in key-arena order, sub-index by sub-index:
  /// (key, its distinct Y-values in maintenance order). Caller holds the
  /// structural lock exclusively.
  void ForEachBucket(
      const std::function<void(const ValueVec& key, const BucketView& ys)>&
          fn) const;

  /// One checkpointed bucket, as parsed back from a segment.
  struct RestoredBucket {
    ValueVec key;
    std::vector<Row> ys;
    std::vector<size_t> mults;
  };

  /// Rebuilds an index from checkpointed buckets instead of a heap walk:
  /// resolves columns and adopts `heap`'s dictionary like Build, then
  /// installs each bucket verbatim, in payload order (same Y order, same
  /// multiplicities — the state incremental maintenance had reached at
  /// the checkpoint). Strings may be inline; each must be in `heap`'s
  /// dictionary. Sub-index routing is recomputed from the key hashes.
  static Result<std::unique_ptr<AcIndex>> Restore(
      AccessConstraint constraint, const TableHeap& heap,
      std::vector<RestoredBucket> buckets);
  /// @}

 private:
  /// A bucket's run in the entry arena, in entries.
  struct BucketRun {
    uint32_t offset = 0;
    uint32_t size = 0;  ///< 0 <=> the key id is free
    uint32_t cap = 0;
  };

  /// One hash partition of the key space (see "Cell layout").
  struct SubIndex {
    std::vector<uint64_t> key_slots;  ///< tag << 32 | key id; kEmptySlot
    std::vector<Cell> key_cells;      ///< |X| cells per key id
    std::vector<BucketRun> runs;      ///< per key id
    std::vector<uint32_t> free_ids;   ///< erased key ids, reused LIFO
    std::vector<Cell> entry_cells;    ///< y_stride_ cells per entry slot
    std::vector<uint32_t> mults;      ///< per entry slot
    std::vector<uint64_t> entry_slots;  ///< key id << 32 | position
    size_t num_keys = 0;
    size_t num_entries = 0;
    size_t dead_entries = 0;  ///< entry slots in abandoned runs
    uint64_t bytes = 0;       ///< this sub-index's share of bytes_
    /// Writer-writer serialization only (see class comment).
    std::mutex write_mutex;
  };

  AcIndex(AccessConstraint constraint, std::vector<size_t> x_cols,
          std::vector<size_t> y_cols, const TableHeap& heap);

  /// Resolves columns against `heap` and creates the empty index.
  static Result<std::unique_ptr<AcIndex>> Create(AccessConstraint constraint,
                                                 const TableHeap& heap);

  /// Compacts every sub-index and starts its byte count (end of a bulk
  /// load).
  void Finish();

  /// Encodes `key` as probe cells into `cells` and sets `*hash` to its
  /// ValueVecHash. False when no stored key can equal it (a NULL part, a
  /// string absent from the dictionary, a non-integral DOUBLE against an
  /// INT column, ...).
  bool EncodeProbe(const ValueVec& key, Cell* cells, uint64_t* hash) const;
  /// Encodes the X-values `x(k)` as key cells; false when a part is NULL
  /// (not indexed) or does not encode.
  template <typename GetValue>
  bool EncodeKey(GetValue x, Cell* cells) const;
  /// Encodes the Y-values `y(j)` as one entry's cells, NULL mask included.
  template <typename GetValue>
  bool EncodeEntry(GetValue y, Cell* cells) const;
  /// Encodes a heap row's key and entry; false when the row is not
  /// indexed.
  bool EncodeRow(const Row& row, Cell* key, Cell* entry) const;

  uint64_t KeyHash(const Cell* cells) const;
  uint64_t EntryHash(const Cell* cells) const;
  bool KeyEquals(const Cell* a, const Cell* b) const;
  bool EntryEquals(const Cell* a, const Cell* b) const;

  BucketView Find(const SubIndex& sub, const Cell* key, uint64_t hash) const;
  /// Key-slot index of `key`, or SIZE_MAX.
  size_t FindKeySlot(const SubIndex& sub, const Cell* key,
                     uint64_t hash) const;
  uint32_t AddKey(SubIndex* sub, const Cell* key, uint64_t hash);
  void EraseKey(SubIndex* sub, size_t slot);
  /// Entry-slot index of Y-value `entry` in key `id`'s bucket, or
  /// SIZE_MAX.
  size_t FindEntrySlot(const SubIndex& sub, uint32_t id, const Cell* entry,
                       uint64_t entry_hash) const;
  void PlaceEntry(SubIndex* sub, uint64_t slot_value, uint64_t entry_hash);
  void EraseEntrySlot(SubIndex* sub, size_t slot);
  /// Appends an entry to key `id`'s bucket, moving its run if full.
  void AppendEntry(SubIndex* sub, uint32_t id, const Cell* entry);
  void GrowKeySlots(SubIndex* sub);
  void GrowEntrySlots(SubIndex* sub);
  /// Rewrites the entry arena with every run tight, in key-id order.
  void CompactEntries(SubIndex* sub);
  void RecountBytes(SubIndex* sub);

  /// Insert/delete with the sub-index lock already held (or not needed).
  /// InsertLocked returns the new entry's multiplicity, or nullptr when
  /// the Y-value was already in the bucket and its count went up.
  uint32_t* InsertLocked(SubIndex* sub, const Cell* key, uint64_t hash,
                         const Cell* entry);
  void DeleteLocked(SubIndex* sub, const Cell* key, uint64_t hash,
                    const Cell* entry);

  const Cell* EntryAt(const SubIndex& sub, size_t slot) const {
    return sub.entry_cells.data() + slot * y_stride_;
  }

  AccessConstraint constraint_;
  std::vector<size_t> x_cols_;
  std::vector<size_t> y_cols_;
  std::vector<TypeId> x_types_;  ///< declared type per key column
  std::vector<TypeId> y_types_;  ///< declared type per Y column
  size_t y_stride_ = 0;          ///< cells per entry: |Y| + mask cells
  const StringDict* dict_ = nullptr;  ///< the indexed heap's dictionary
  std::vector<std::unique_ptr<SubIndex>> shards_;
  std::atomic<uint64_t> bytes_{0};
};

}  // namespace beas

#endif  // BEAS_ASX_AC_INDEX_H_
