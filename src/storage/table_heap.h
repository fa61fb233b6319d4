#ifndef BEAS_STORAGE_TABLE_HEAP_H_
#define BEAS_STORAGE_TABLE_HEAP_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/shard_config.h"
#include "storage/cell_codec.h"
#include "storage/string_dict.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace beas {

/// \brief Stable identifier of a row inside a TableHeap.
using SlotId = size_t;

/// \brief An in-memory row store with stable slots and tombstone deletes,
/// hash-partitioned into N shards.
///
/// This is the storage substrate underneath both the conventional engine
/// (sequential scans) and the access-constraint indices (built from it and
/// maintained alongside it). Slots are never reused, so a SlotId handed
/// out by Insert remains valid (live or dead) for the heap's lifetime.
///
/// ## Layout
///
/// Each shard stores its rows as one packed cell arena (see
/// storage/cell_codec.h): slot i of a shard is the `stride()` cells at
/// `i * stride()` — one 8-byte cell per column, then ⌈ncols/64⌉ NULL-mask
/// cells, the same layout as an AC-index entry. A cell is read by its
/// column's declared type: an INT or DATE payload, the raw bits of a
/// DOUBLE, or a code of the table's dictionary. No Value is stored:
/// `CellsAt` hands out the cells, and `ValueAt` / `RowAt` build Values at
/// the boundary that needs them. Beside the arena each shard keeps one
/// live flag per slot.
///
/// ## Sharding
///
/// Rows live in `ConfiguredShardCount()` per-shard stores; a row's shard
/// is the hash of its shard-key column (the first X-column of the first
/// access constraint registered on the table, see DeclareShardKey) modulo
/// the shard count, falling back to the full row hash while no key is
/// declared. A global *slot directory* — one (shard, local) entry per
/// insert, in insertion order — keeps the public surface shard-oblivious:
/// SlotIds are directory positions, and iteration walks the directory, so
/// scan order, AC-index build order and hence every query answer are
/// bit-identical across shard counts. Sharding buys locking granularity
/// (Database holds one write lock per shard) and end-to-end parallelism
/// (AcIndex partitions into sub-indexes along the same shard count), not
/// different semantics.
///
/// ## Thread-safety
///
/// Same single-writer/multi-reader contract as before, now at shard
/// granularity: writers to *different* shards may run concurrently (the
/// directory append and the dictionary intern are internally serialized;
/// everything else a writer touches is per-shard), while a reader must be
/// excluded from every shard it reads — Database's per-shard lock table
/// enforces exactly that (readers share-lock all shards, a writer
/// exclusively locks the shards its rows hash to). A write may grow an
/// arena and so move its cells: a `CellsAt` pointer is valid until the
/// next insert into that shard.
///
/// ## String dictionary
///
/// A table with STRING columns owns a StringDict; every string value is
/// interned on insert, and its cell holds the code. Everything downstream
/// of storage — AC index keys and buckets, batch gathers, probe-key
/// hashing — inherits O(1) string hashing/equality from that single
/// encode. The dictionary is table-level (shared by all shards, so code
/// equality keeps working across shards) and append-only; `dict()`
/// exposes it to the index and executor layers. InsertUnchecked interns
/// the caller's row in place, so write hooks receive that row with its
/// strings dictionary-backed: equal, value for value, to what `RowAt`
/// reads back.
class TableHeap {
 public:
  explicit TableHeap(Schema schema);

  /// Cells hold codes of dict_; copying a heap would silently retarget
  /// nothing and dangle every decoded string.
  TableHeap(const TableHeap&) = delete;
  TableHeap& operator=(const TableHeap&) = delete;

  const Schema& schema() const { return schema_; }

  /// The table's string dictionary, or nullptr when the table has no
  /// STRING columns.
  const StringDict* dict() const { return has_string_cols_ ? &dict_ : nullptr; }

  /// Cells per slot: one per column, then the NULL-mask cells.
  size_t stride() const { return stride_; }

  /// \name Shard surface.
  /// @{
  size_t num_shards() const { return shards_.size(); }

  /// Declares the column future inserts shard by (the first X-column of
  /// the table's first access constraint). Rows already placed stay where
  /// they are — placement is a locality/locking hint, never a correctness
  /// input, because the directory records every row's location.
  void DeclareShardKey(size_t col) {
    if (shard_key_col_ < 0 && col < schema_.NumColumns()) {
      shard_key_col_ = static_cast<int64_t>(col);
    }
  }
  int64_t shard_key_col() const { return shard_key_col_; }

  /// Sentinel for InsertUnchecked's `shard`: derive the shard from the
  /// row instead of trusting a caller-precomputed value.
  static constexpr size_t kShardAuto = static_cast<size_t>(-1);

  /// The shard `row` routes to: hash of the shard-key column when
  /// declared, full row hash otherwise. Deterministic across processes
  /// (same hashes the rest of the engine uses). Callers that take
  /// per-shard write locks (Database) compute this before locking.
  size_t ShardOf(const Row& row) const {
    if (shards_.size() == 1) return 0;
    uint64_t h;
    if (shard_key_col_ >= 0 &&
        static_cast<size_t>(shard_key_col_) < row.size()) {
      h = row[static_cast<size_t>(shard_key_col_)].Hash();
    } else {
      h = ValueVecHash{}(row);
    }
    return static_cast<size_t>(h % shards_.size());
  }

  /// Live rows currently stored in shard `s` (per-shard gauge; sample it
  /// under that shard's lock — see the stats snapshot in BeasService).
  size_t ShardLiveRows(size_t s) const { return shards_[s].num_live; }

  /// \name Data version epoch.
  ///
  /// A monotone counter bumped by every mutation that can change a query
  /// answer over this table: row placement (Insert / InsertUnchecked /
  /// InsertBatchUnchecked — including WAL-applied writes, which land
  /// through the same paths), tombstoning (Delete), and wholesale
  /// restores. Readers that captured the epoch while holding every
  /// shard's read lock (Database::ReadScope excludes all writers) may
  /// treat epoch equality as "data unchanged since capture" — the
  /// result cache's lazy invalidation contract. Relaxed atomics suffice:
  /// the happens-before edge comes from the shard locks, the counter only
  /// needs to be monotone.
  /// @{
  uint64_t version_epoch() const {
    return version_epoch_.load(std::memory_order_relaxed);
  }
  void BumpVersionEpoch() {
    version_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  /// @}

  /// Dictionary gauges sampled under the intern lock, so monitoring can
  /// read them without excluding writers from every shard.
  struct DictGauges {
    uint64_t strings = 0;
    uint64_t bytes = 0;
  };
  DictGauges SampleDictGauges() const {
    DictGauges g;
    if (dict() == nullptr) return g;
    std::lock_guard<std::mutex> lock(dict_mutex_);
    g.strings = dict_.size();
    g.bytes = dict_.ApproxBytes();
    return g;
  }

  /// Bytes held by the row store: the capacities of every shard's cell
  /// arena and live flags, plus the slot directory (the dictionary has
  /// its own gauge). Kept as a running total by the writers, so reading
  /// it is O(1) and needs no lock.
  uint64_t ApproxBytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// @}

  /// Validates arity and coerces column types of `row` in place (the
  /// validation half of Insert; Database runs it before computing the
  /// row's shard so per-shard locking sees the stored representation).
  Status ValidateAndCoerce(Row* row) const;

  /// Appends a row; validates arity and column types (after implicit
  /// coercion). Returns the new slot.
  Result<SlotId> Insert(Row row);

  /// Appends without validation, for trusted rows whose values already
  /// have their columns' types (or are NULL). Interns `*row`'s strings in
  /// place — afterwards it equals, value for value, the row as stored —
  /// and packs it into its shard. `shard` (optional) is the row's
  /// precomputed ShardOf — callers that route locking by it pass it down
  /// so lock and placement agree by construction rather than by
  /// re-derivation.
  SlotId InsertUnchecked(Row* row, size_t shard = kShardAuto);

  /// Bulk append without validation: one interning pass under one lock
  /// acquisition for the whole batch (the natural grain for dictionary
  /// encoding).
  void InsertBatchUnchecked(std::vector<Row> rows);

  /// Drops the growth headroom of every arena (the end of a bulk load),
  /// so ApproxBytes equals the bytes the rows occupy.
  void ShrinkToFit();

  /// Tombstones a slot. Errors if out of range or already dead.
  Status Delete(SlotId slot);

  /// Sentinel for FindEqual: no live row matches.
  static constexpr SlotId kNoSlot = static_cast<SlotId>(-1);

  /// The first live slot, in directory order, whose row equals `probe`
  /// column by column under Value equality, NULL matching NULL (an INT
  /// probe value matches the equal DOUBLE); kNoSlot when there is none.
  /// The probe is encoded into cells once, then compared with each row's
  /// cells and NULL masks. Caller excludes every writer.
  SlotId FindEqual(const Row& probe) const;

  /// True if `slot` holds a live row.
  bool IsLive(SlotId slot) const {
    if (slot >= directory_.size()) return false;
    const SlotRef& ref = directory_[slot];
    return shards_[ref.shard].live[ref.local] != 0;
  }

  /// \name Row access. Caller ensures `slot < NumSlots()`.
  /// @{
  /// The slot's `stride()` cells (see "Layout").
  const Cell* CellsAt(SlotId slot) const {
    const SlotRef& ref = directory_[slot];
    return shards_[ref.shard].cells.data() + size_t{ref.local} * stride_;
  }
  /// Column `col` of the slot as a Value of the column's type (or NULL).
  Value ValueAt(SlotId slot, size_t col) const {
    return Decode(CellsAt(slot), col);
  }
  /// The slot's row, materialized.
  Row RowAt(SlotId slot) const { return DecodeRow(CellsAt(slot)); }
  /// Column `col` of the packed row `cells` as a Value.
  Value Decode(const Cell* cells, size_t col) const {
    if (CellIsNull(cells, ncols_, col)) return Value::Null();
    return DecodeCell(types_[col], cells[col], &dict_);
  }
  /// The packed row `cells` as a row of Values.
  Row DecodeRow(const Cell* cells) const;
  /// @}

  /// Number of live rows.
  size_t NumRows() const { return num_live_.load(std::memory_order_relaxed); }

  /// Number of slots ever allocated (live + dead).
  size_t NumSlots() const { return directory_.size(); }

  /// \brief Forward iterator over live rows, in global insertion order
  /// (directory order) — invariant across shard counts.
  class Iterator {
   public:
    Iterator(const TableHeap* heap, SlotId pos) : heap_(heap), pos_(pos) {
      SkipDead();
    }
    bool Valid() const { return pos_ < heap_->directory_.size(); }
    SlotId slot() const { return pos_; }
    const Cell* cells() const { return heap_->CellsAt(pos_); }
    Value value(size_t col) const { return heap_->ValueAt(pos_, col); }
    Row row() const { return heap_->RowAt(pos_); }
    void Next() {
      ++pos_;
      SkipDead();
    }

   private:
    void SkipDead() {
      while (pos_ < heap_->directory_.size() && !heap_->IsLive(pos_)) ++pos_;
    }
    const TableHeap* heap_;
    SlotId pos_;
  };

  Iterator Begin() const { return Iterator(this, 0); }

  /// Copies all live rows out (test/debug helper).
  std::vector<Row> Snapshot() const;

  /// \name Durability surface (checkpoint export / recovery restore).
  ///
  /// The export accessors walk raw per-shard storage — including
  /// tombstoned slots, which a checkpoint must persist verbatim so
  /// restored SlotIds keep their meaning for the directory. Caller holds
  /// the structural lock exclusively (export) or owns the heap outright
  /// (restore runs before the database is shared).
  /// @{
  size_t ShardRowCount(size_t s) const { return shards_[s].live.size(); }
  const Cell* ShardCellsAt(size_t s, size_t i) const {
    return shards_[s].cells.data() + i * stride_;
  }
  /// Test-only mutable access to a stored slot's cells: scrub tests flip a
  /// cell in place to simulate in-memory rot without going through any
  /// write path (which would mark the table dirty and mask the
  /// corruption).
  Cell* MutableShardCellsForTesting(size_t s, size_t i) {
    return shards_[s].cells.data() + i * stride_;
  }
  bool ShardRowLive(size_t s, size_t i) const {
    return shards_[s].live[i] != 0;
  }
  std::pair<uint32_t, uint32_t> DirectorySlot(SlotId slot) const {
    const SlotRef& ref = directory_[slot];
    return {ref.shard, ref.local};
  }

  /// Restores a checkpointed dictionary into this (empty) heap; see
  /// StringDict::RestoreFrom. Must run before any row is packed for
  /// RestoreContent, because packing encodes strings as its codes.
  Status RestoreDict(std::vector<std::string> strings) {
    return dict_.RestoreFrom(std::move(strings));
  }

  /// Packs one checkpointed row into `out` (`stride()` cells) against the
  /// restored dictionary, for RestoreContent. Inline strings resolve to
  /// their codes. Corruption when the arity is wrong, a value's type does
  /// not fit its column, or a string is absent from the dictionary.
  Status PackRestored(const Row& row, Cell* out) const;

  /// One checkpointed shard: its packed slots and their live flags.
  struct ShardContent {
    std::vector<Cell> cells;    ///< stride() cells per slot (PackRestored)
    std::vector<uint8_t> live;  ///< one flag per slot
  };

  /// Restores checkpointed storage into this (empty) heap: per-shard
  /// cells and live flags, the global slot directory, and the shard key.
  /// Restore does NOT re-route, because placement is historical: a row
  /// inserted before the shard key was declared lives where the row-hash
  /// fallback put it, and re-deriving placement would tear the
  /// directory's invariants. The shard count is taken from `shards` (the
  /// checkpoint records it; it may differ from the configured count).
  Status RestoreContent(
      std::vector<ShardContent> shards,
      const std::vector<std::pair<uint32_t, uint32_t>>& directory,
      int64_t shard_key_col);
  /// @}

 private:
  /// Location of one slot: which shard, and where inside it.
  struct SlotRef {
    uint32_t shard = 0;
    uint32_t local = 0;
  };

  /// One hash partition of the row store.
  struct Shard {
    std::vector<Cell> cells;    ///< stride_ cells per slot
    std::vector<uint8_t> live;  ///< one flag per slot
    size_t num_live = 0;
    uint64_t bytes = 0;  ///< this shard's share of bytes_
  };

  /// Replaces inline string values of `row` with dictionary-backed ones.
  /// Serialized by dict_mutex_ (concurrent per-shard writers share the
  /// table-level dictionary); the Locked variant assumes the caller holds
  /// it (batch loads intern under one acquisition).
  void InternStrings(Row* row);
  void InternStringsLocked(Row* row);

  /// Packs an already-interned row into its shard and records it in the
  /// directory; returns the new global slot. `shard` is the caller's
  /// precomputed ShardOf (kShardAuto derives it here); interning must not
  /// change it — dict-backed and inline strings hash identically.
  SlotId Place(const Row& row, size_t shard = kShardAuto);

  /// Writes `row` (arity ncols_, strings of dict_ or held by it) into
  /// `out`; false when a value does not fit its column's type.
  bool Pack(const Row& row, Cell* out) const;

  /// Re-derives shard `sh`'s byte share after its arenas changed.
  void RecountShardBytes(Shard* sh);
  /// Same for the directory; caller holds directory_mutex_ (or owns the
  /// heap).
  void RecountDirectoryBytes();

  Schema schema_;
  size_t ncols_ = 0;
  size_t stride_ = 0;
  std::vector<TypeId> types_;  ///< declared type per column
  std::vector<Shard> shards_;
  std::vector<SlotRef> directory_;  ///< global slot -> location, insert order
  std::atomic<size_t> num_live_{0};
  std::atomic<uint64_t> version_epoch_{0};
  std::atomic<uint64_t> bytes_{0};
  uint64_t directory_bytes_ = 0;  ///< the directory's share of bytes_
  int64_t shard_key_col_ = -1;

  /// Serializes directory appends among concurrent per-shard writers
  /// (readers never race it: they hold every shard's read lock, which
  /// excludes all writers).
  std::mutex directory_mutex_;

  StringDict dict_;
  mutable std::mutex dict_mutex_;  ///< serializes Intern among writers
  bool has_string_cols_ = false;
};

}  // namespace beas

#endif  // BEAS_STORAGE_TABLE_HEAP_H_
