#include "asx/ac_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/task_pool.h"

namespace beas {

namespace {

using Cell = AcIndex::Cell;

/// Key sets below this size are probed with the plain per-key loop: the
/// partition pass plus a pool dispatch would cost more than the probes
/// themselves. Matches the executor's serial cutoff for single-shard
/// chunked fan-out, so small per-step batches never pay fan-out overhead
/// on either path.
constexpr size_t kShardedProbeMin = 1024;

/// An unused slot of the key table or the maintenance map (no key id or
/// position reaches 2^32 - 1).
constexpr uint64_t kEmptySlot = ~uint64_t{0};

constexpr size_t kMinSlots = 16;

/// Fibonacci hashing: the top bits of `h * φ` pick a slot, so the low bits
/// that route a key to its sub-index (`hash % num_shards`) do not bias it.
size_t HomeSlot(uint64_t h, size_t num_slots) {
  int shift = 64 - __builtin_ctzll(num_slots);
  return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> shift);
}

/// True when slot `home` lies in the cyclic range (i, j].
bool InCyclicRange(size_t home, size_t i, size_t j) {
  return i <= j ? (home > i && home <= j) : (home > i || home <= j);
}

/// Linear-probing insert of `value`, starting at slot `home`.
void PlaceSlot(std::vector<uint64_t>* slots, uint64_t value, size_t home) {
  size_t mask = slots->size() - 1;
  while ((*slots)[home] != kEmptySlot) home = (home + 1) & mask;
  (*slots)[home] = value;
}

/// Backward-shift deletion: pulls each later slot of the probe run back
/// into the hole unless its home (`home_of(value)`) lies between the hole
/// and itself, so lookups never need tombstones.
template <typename HomeOf>
void EraseSlot(std::vector<uint64_t>* slots, size_t slot, HomeOf home_of) {
  size_t mask = slots->size() - 1;
  size_t hole = slot;
  for (size_t j = (hole + 1) & mask; (*slots)[j] != kEmptySlot;
       j = (j + 1) & mask) {
    if (!InCyclicRange(home_of((*slots)[j]), hole, j)) {
      (*slots)[hole] = (*slots)[j];
      hole = j;
    }
  }
  (*slots)[hole] = kEmptySlot;
}

/// Scratch cells for one key or entry: on the stack for usual arities.
class CellBuf {
 public:
  explicit CellBuf(size_t n) {
    if (n > kInline) spill_.resize(n);
  }
  Cell* data() { return spill_.empty() ? inline_ : spill_.data(); }

 private:
  static constexpr size_t kInline = 16;
  Cell inline_[kInline];
  std::vector<Cell> spill_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Construction.
// ---------------------------------------------------------------------------

AcIndex::AcIndex(AccessConstraint constraint, std::vector<size_t> x_cols,
                 std::vector<size_t> y_cols, const TableHeap& heap)
    : constraint_(std::move(constraint)),
      x_cols_(std::move(x_cols)),
      y_cols_(std::move(y_cols)),
      dict_(heap.dict()) {
  for (size_t c : x_cols_) x_types_.push_back(heap.schema().ColumnAt(c).type);
  for (size_t c : y_cols_) y_types_.push_back(heap.schema().ColumnAt(c).type);
  y_stride_ = CellStride(y_types_.size());
  shards_.reserve(heap.num_shards());
  for (size_t s = 0; s < heap.num_shards(); ++s) {
    shards_.push_back(std::make_unique<SubIndex>());
  }
}

Result<std::unique_ptr<AcIndex>> AcIndex::Create(AccessConstraint constraint,
                                                 const TableHeap& heap) {
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> x_cols,
                        constraint.ResolveX(heap.schema()));
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> y_cols,
                        constraint.ResolveY(heap.schema()));
  return std::unique_ptr<AcIndex>(new AcIndex(
      std::move(constraint), std::move(x_cols), std::move(y_cols), heap));
}

Result<std::unique_ptr<AcIndex>> AcIndex::Build(AccessConstraint constraint,
                                                const TableHeap& heap) {
  BEAS_ASSIGN_OR_RETURN(std::unique_ptr<AcIndex> index,
                        Create(std::move(constraint), heap));
  // Heap slots and index entries share the cell codec: copy the X and Y
  // cells straight from the heap arena.
  const std::vector<size_t>& x_cols = index->x_cols_;
  const std::vector<size_t>& y_cols = index->y_cols_;
  size_t ncols = heap.schema().NumColumns();
  size_t arity = y_cols.size();
  CellBuf key(x_cols.size());
  CellBuf entry(index->y_stride_);
  Cell* k = key.data();
  Cell* e = entry.data();
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    const Cell* row = it.cells();
    bool indexed = true;
    for (size_t i = 0; i < x_cols.size() && indexed; ++i) {
      indexed = !CellIsNull(row, ncols, x_cols[i]);
      k[i] = row[x_cols[i]];
    }
    if (!indexed) continue;  // SQL equality never matches a NULL key
    std::fill(e + arity, e + index->y_stride_, Cell{0});
    for (size_t j = 0; j < arity; ++j) {
      e[j] = row[y_cols[j]];  // 0 when NULL, as the mask requires
      if (CellIsNull(row, ncols, y_cols[j])) SetCellNull(e, arity, j);
    }
    uint64_t hash = index->KeyHash(k);
    index->InsertLocked(index->shards_[hash % index->shards_.size()].get(), k,
                        hash, e);
  }
  index->Finish();
  return index;
}

void AcIndex::Finish() {
  for (auto& sub : shards_) {
    CompactEntries(sub.get());
    sub->key_cells.shrink_to_fit();
    sub->runs.shrink_to_fit();
    RecountBytes(sub.get());
  }
}

// ---------------------------------------------------------------------------
// Cells.
// ---------------------------------------------------------------------------

template <typename GetValue>
bool AcIndex::EncodeKey(GetValue x, Cell* cells) const {
  for (size_t k = 0; k < x_types_.size(); ++k) {
    const Value& v = x(k);
    if (v.is_null() || !EncodeStoredCell(x_types_[k], v, dict_, &cells[k])) {
      return false;
    }
  }
  return true;
}

template <typename GetValue>
bool AcIndex::EncodeEntry(GetValue y, Cell* cells) const {
  size_t arity = y_types_.size();
  std::fill(cells + arity, cells + y_stride_, Cell{0});
  for (size_t j = 0; j < arity; ++j) {
    const Value& v = y(j);
    if (v.is_null()) {
      SetCellNull(cells, arity, j);
    } else if (!EncodeStoredCell(y_types_[j], v, dict_, &cells[j])) {
      return false;
    }
  }
  return true;
}

bool AcIndex::EncodeRow(const Row& row, Cell* key, Cell* entry) const {
  return EncodeKey([&](size_t k) -> const Value& { return row[x_cols_[k]]; },
                   key) &&
         EncodeEntry(
             [&](size_t j) -> const Value& { return row[y_cols_[j]]; }, entry);
}

bool AcIndex::EncodeProbe(const ValueVec& key, Cell* cells,
                          uint64_t* hash) const {
  uint64_t h = kValueVecHashSeed;
  bool ok = key.size() == x_types_.size();
  for (size_t k = 0; k < key.size(); ++k) {
    const Value& v = key[k];
    uint64_t part_hash = v.Hash();
    HashCombine(&h, part_hash);
    if (!ok || v.is_null()) {
      ok = false;
      continue;
    }
    // A probe value matches a stored cell exactly when Value::Equals and
    // Value::Hash both agree, as in a hash container of Values.
    switch (x_types_[k]) {
      case TypeId::kInt64:
      case TypeId::kDate:
        if (v.type() == TypeId::kInt64 || v.type() == TypeId::kDate) {
          cells[k] = static_cast<Cell>(v.AsInt64());
        } else if (v.type() == TypeId::kDouble) {
          double d = v.AsDouble();
          ok = std::round(d) == d && std::abs(d) < 9.0e18;
          if (ok) cells[k] = static_cast<Cell>(static_cast<int64_t>(d));
        } else {
          ok = false;
        }
        break;
      case TypeId::kDouble:
        if (v.type() == TypeId::kDouble) {
          cells[k] = DoubleCell(v.AsDouble());
        } else if (v.type() == TypeId::kInt64 || v.type() == TypeId::kDate) {
          double d = static_cast<double>(v.AsInt64());
          ok = std::abs(d) < 9.0e18 &&
               static_cast<int64_t>(d) == v.AsInt64();
          cells[k] = DoubleCell(d);
        } else {
          ok = false;
        }
        break;
      case TypeId::kString:
        if (v.type() != TypeId::kString || dict_ == nullptr) {
          ok = false;
        } else if (v.dict() == dict_) {
          cells[k] = v.dict_code();
        } else {
          int64_t code = dict_->FindWithHash(v.AsString(), part_hash);
          ok = code >= 0;
          cells[k] = static_cast<Cell>(code);
        }
        break;
      default:
        ok = false;
    }
  }
  *hash = h;
  return ok;
}

namespace {

uint64_t CellHash(TypeId type, Cell c, const StringDict* dict) {
  switch (type) {
    case TypeId::kDouble:
      return HashDoubleValue(CellDouble(c));
    case TypeId::kString:
      return dict->hash(static_cast<uint32_t>(c));
    default:
      return HashInt64(c);
  }
}

bool CellEquals(TypeId type, Cell a, Cell b) {
  return a == b ||
         (type == TypeId::kDouble && CellDouble(a) == CellDouble(b));
}

}  // namespace

uint64_t AcIndex::KeyHash(const Cell* cells) const {
  uint64_t h = kValueVecHashSeed;
  for (size_t k = 0; k < x_types_.size(); ++k) {
    HashCombine(&h, CellHash(x_types_[k], cells[k], dict_));
  }
  return h;
}

uint64_t AcIndex::EntryHash(const Cell* cells) const {
  size_t arity = y_types_.size();
  uint64_t h = kValueVecHashSeed;
  for (size_t j = 0; j < arity; ++j) {
    HashCombine(&h, CellIsNull(cells, arity, j) ? kNullValueHash
                            : CellHash(y_types_[j], cells[j], dict_));
  }
  return h;
}

bool AcIndex::KeyEquals(const Cell* a, const Cell* b) const {
  for (size_t k = 0; k < x_types_.size(); ++k) {
    if (!CellEquals(x_types_[k], a[k], b[k])) return false;
  }
  return true;
}

bool AcIndex::EntryEquals(const Cell* a, const Cell* b) const {
  size_t arity = y_types_.size();
  for (size_t m = arity; m < y_stride_; ++m) {
    if (a[m] != b[m]) return false;  // NULL masks
  }
  for (size_t j = 0; j < arity; ++j) {
    if (!CellEquals(y_types_[j], a[j], b[j])) return false;
  }
  return true;
}

Value AcIndex::BucketView::Y(size_t i, size_t j) const {
  if (IsNull(i, j)) return Value::Null();
  return DecodeCell(index->y_types_[j], cell(i, j), index->dict_);
}

Row AcIndex::BucketView::YRow(size_t i) const {
  Row row;
  row.reserve(index->y_types_.size());
  for (size_t j = 0; j < index->y_types_.size(); ++j) row.push_back(Y(i, j));
  return row;
}

// ---------------------------------------------------------------------------
// Key table.
// ---------------------------------------------------------------------------

size_t AcIndex::FindKeySlot(const SubIndex& sub, const Cell* key,
                            uint64_t hash) const {
  size_t num_slots = sub.key_slots.size();
  if (num_slots == 0) return SIZE_MAX;
  uint64_t tag = hash >> 32;
  size_t arity = x_types_.size();
  for (size_t i = HomeSlot(tag, num_slots);; i = (i + 1) & (num_slots - 1)) {
    uint64_t s = sub.key_slots[i];
    if (s == kEmptySlot) return SIZE_MAX;
    if ((s >> 32) == tag &&
        KeyEquals(sub.key_cells.data() + static_cast<uint32_t>(s) * arity,
                  key)) {
      return i;
    }
  }
}

void AcIndex::GrowKeySlots(SubIndex* sub) {
  std::vector<uint64_t> old = std::move(sub->key_slots);
  size_t num_slots = std::max(kMinSlots, old.size() * 2);
  sub->key_slots.assign(num_slots, kEmptySlot);
  for (uint64_t s : old) {
    if (s != kEmptySlot) {
      PlaceSlot(&sub->key_slots, s, HomeSlot(s >> 32, num_slots));
    }
  }
}

uint32_t AcIndex::AddKey(SubIndex* sub, const Cell* key, uint64_t hash) {
  if ((sub->num_keys + 1) * 4 > sub->key_slots.size() * 3) GrowKeySlots(sub);
  size_t arity = x_types_.size();
  uint32_t id = 0;
  if (!sub->free_ids.empty()) {
    id = sub->free_ids.back();
    sub->free_ids.pop_back();
    sub->runs[id] = BucketRun{};
  } else {
    id = static_cast<uint32_t>(sub->runs.size());
    GrowTo(&sub->runs, sub->runs.size() + 1);
    GrowTo(&sub->key_cells, sub->key_cells.size() + arity);
  }
  std::copy(key, key + arity, sub->key_cells.begin() + id * arity);
  uint64_t tag = hash >> 32;
  PlaceSlot(&sub->key_slots, tag << 32 | id,
            HomeSlot(tag, sub->key_slots.size()));
  ++sub->num_keys;
  return id;
}

void AcIndex::EraseKey(SubIndex* sub, size_t slot) {
  uint32_t id = static_cast<uint32_t>(sub->key_slots[slot]);
  sub->dead_entries += sub->runs[id].cap;
  sub->runs[id] = BucketRun{};
  sub->free_ids.push_back(id);
  --sub->num_keys;
  size_t num_slots = sub->key_slots.size();
  EraseSlot(&sub->key_slots, slot,
            [num_slots](uint64_t s) { return HomeSlot(s >> 32, num_slots); });
}

// ---------------------------------------------------------------------------
// Maintenance map and entry arena.
// ---------------------------------------------------------------------------

namespace {

/// Home hash of entry (key `id`, Y-hash `entry_hash`) in the maintenance
/// map.
uint64_t EntrySlotHash(uint32_t id, uint64_t entry_hash) {
  HashCombine(&entry_hash, HashInt64(id));
  return entry_hash;
}

}  // namespace

size_t AcIndex::FindEntrySlot(const SubIndex& sub, uint32_t id,
                              const Cell* entry, uint64_t entry_hash) const {
  size_t num_slots = sub.entry_slots.size();
  if (num_slots == 0) return SIZE_MAX;
  const BucketRun& run = sub.runs[id];
  for (size_t i = HomeSlot(EntrySlotHash(id, entry_hash), num_slots);;
       i = (i + 1) & (num_slots - 1)) {
    uint64_t s = sub.entry_slots[i];
    if (s == kEmptySlot) return SIZE_MAX;
    if ((s >> 32) == id &&
        EntryEquals(EntryAt(sub, run.offset + static_cast<uint32_t>(s)),
                    entry)) {
      return i;
    }
  }
}

void AcIndex::PlaceEntry(SubIndex* sub, uint64_t slot_value,
                         uint64_t entry_hash) {
  PlaceSlot(&sub->entry_slots, slot_value,
            HomeSlot(EntrySlotHash(static_cast<uint32_t>(slot_value >> 32),
                                   entry_hash),
                     sub->entry_slots.size()));
}

void AcIndex::GrowEntrySlots(SubIndex* sub) {
  sub->entry_slots.assign(std::max(kMinSlots, sub->entry_slots.size() * 2),
                          kEmptySlot);
  for (uint32_t id = 0; id < sub->runs.size(); ++id) {
    const BucketRun& run = sub->runs[id];
    for (uint32_t pos = 0; pos < run.size; ++pos) {
      PlaceEntry(sub, uint64_t{id} << 32 | pos,
                 EntryHash(EntryAt(*sub, run.offset + pos)));
    }
  }
}

void AcIndex::EraseEntrySlot(SubIndex* sub, size_t slot) {
  EraseSlot(&sub->entry_slots, slot, [this, sub](uint64_t s) {
    uint32_t id = static_cast<uint32_t>(s >> 32);
    const Cell* cells =
        EntryAt(*sub, sub->runs[id].offset + static_cast<uint32_t>(s));
    return HomeSlot(EntrySlotHash(id, EntryHash(cells)),
                    sub->entry_slots.size());
  });
}

void AcIndex::AppendEntry(SubIndex* sub, uint32_t id, const Cell* entry) {
  BucketRun& run = sub->runs[id];
  if (run.size == run.cap) {
    size_t arena = sub->mults.size();
    uint32_t cap = run.cap == 0 ? 1 : run.cap * 2;
    if (run.cap > 0 && run.offset + run.cap == arena) {
      arena += cap - run.cap;  // the last run grows in place
    } else {
      size_t from = run.offset;
      run.offset = static_cast<uint32_t>(arena);
      arena += cap;
      sub->dead_entries += run.cap;
      GrowTo(&sub->mults, arena);
      GrowTo(&sub->entry_cells, arena * y_stride_);
      std::copy_n(sub->mults.begin() + from, run.size,
                  sub->mults.begin() + run.offset);
      std::copy_n(sub->entry_cells.begin() + from * y_stride_,
                  run.size * y_stride_,
                  sub->entry_cells.begin() + run.offset * y_stride_);
    }
    GrowTo(&sub->mults, arena);
    GrowTo(&sub->entry_cells, arena * y_stride_);
    run.cap = cap;
  }
  size_t at = run.offset + run.size;
  std::copy_n(entry, y_stride_, sub->entry_cells.begin() + at * y_stride_);
  sub->mults[at] = 1;
  ++run.size;
}

void AcIndex::CompactEntries(SubIndex* sub) {
  std::vector<Cell> cells;
  std::vector<uint32_t> mults;
  cells.reserve(sub->num_entries * y_stride_);
  mults.reserve(sub->num_entries);
  for (BucketRun& run : sub->runs) {
    size_t from = run.offset;
    run.offset = static_cast<uint32_t>(mults.size());
    run.cap = run.size;
    mults.insert(mults.end(), sub->mults.begin() + from,
                 sub->mults.begin() + from + run.size);
    cells.insert(cells.end(), sub->entry_cells.begin() + from * y_stride_,
                 sub->entry_cells.begin() + (from + run.size) * y_stride_);
  }
  sub->entry_cells = std::move(cells);
  sub->mults = std::move(mults);
  sub->dead_entries = 0;
}

void AcIndex::RecountBytes(SubIndex* sub) {
  uint64_t bytes = CapacityBytes(sub->key_slots) +
                   CapacityBytes(sub->key_cells) + CapacityBytes(sub->runs) +
                   CapacityBytes(sub->free_ids) +
                   CapacityBytes(sub->entry_cells) +
                   CapacityBytes(sub->mults) +
                   CapacityBytes(sub->entry_slots);
  bytes_.fetch_add(bytes - sub->bytes, std::memory_order_relaxed);
  sub->bytes = bytes;
}

// ---------------------------------------------------------------------------
// Maintenance.
// ---------------------------------------------------------------------------

uint32_t* AcIndex::InsertLocked(SubIndex* sub, const Cell* key,
                                uint64_t hash, const Cell* entry) {
  size_t key_slot = FindKeySlot(*sub, key, hash);
  uint32_t id = key_slot == SIZE_MAX
                    ? AddKey(sub, key, hash)
                    : static_cast<uint32_t>(sub->key_slots[key_slot]);
  uint64_t entry_hash = EntryHash(entry);
  size_t entry_slot = FindEntrySlot(*sub, id, entry, entry_hash);
  if (entry_slot != SIZE_MAX) {
    ++sub->mults[sub->runs[id].offset +
                 static_cast<uint32_t>(sub->entry_slots[entry_slot])];
    return nullptr;
  }
  if ((sub->num_entries + 1) * 4 > sub->entry_slots.size() * 3) {
    GrowEntrySlots(sub);
  }
  uint32_t pos = sub->runs[id].size;
  AppendEntry(sub, id, entry);
  PlaceEntry(sub, uint64_t{id} << 32 | pos, entry_hash);
  ++sub->num_entries;
  // Abandoned runs outweigh live ones: rewrite the arena tight.
  if (sub->dead_entries > 64 && sub->dead_entries * 2 > sub->mults.size()) {
    CompactEntries(sub);
  }
  return &sub->mults[sub->runs[id].offset + pos];
}

void AcIndex::DeleteLocked(SubIndex* sub, const Cell* key, uint64_t hash,
                           const Cell* entry) {
  size_t key_slot = FindKeySlot(*sub, key, hash);
  if (key_slot == SIZE_MAX) return;
  uint32_t id = static_cast<uint32_t>(sub->key_slots[key_slot]);
  size_t entry_slot = FindEntrySlot(*sub, id, entry, EntryHash(entry));
  if (entry_slot == SIZE_MAX) return;
  BucketRun& run = sub->runs[id];
  uint32_t pos = static_cast<uint32_t>(sub->entry_slots[entry_slot]);
  if (--sub->mults[run.offset + pos] > 0) return;
  // Multiplicity hit zero: remove the distinct Y-value. Swap-with-last
  // keeps removal O(1); the moved entry's map slot learns its new position.
  EraseEntrySlot(sub, entry_slot);
  uint32_t last = run.size - 1;
  if (pos != last) {
    const Cell* moved = EntryAt(*sub, run.offset + last);
    uint64_t old_value = uint64_t{id} << 32 | last;
    size_t num_slots = sub->entry_slots.size();
    size_t i = HomeSlot(EntrySlotHash(id, EntryHash(moved)), num_slots);
    while (sub->entry_slots[i] != old_value) i = (i + 1) & (num_slots - 1);
    sub->entry_slots[i] = uint64_t{id} << 32 | pos;
    std::copy_n(moved, y_stride_,
                sub->entry_cells.begin() + (run.offset + pos) * y_stride_);
    sub->mults[run.offset + pos] = sub->mults[run.offset + last];
  }
  --run.size;
  --sub->num_entries;
  if (run.size == 0) EraseKey(sub, key_slot);
}

void AcIndex::OnInsert(const Row& row) {
  CellBuf key(x_types_.size());
  CellBuf entry(y_stride_);
  if (!EncodeRow(row, key.data(), entry.data())) return;
  uint64_t hash = KeyHash(key.data());
  SubIndex* sub = shards_[hash % shards_.size()].get();
  // Writers whose rows hash to different heap shards may reach the same
  // sub-index; per-key order still equals the commit order they observed.
  std::lock_guard<std::mutex> lock(sub->write_mutex);
  InsertLocked(sub, key.data(), hash, entry.data());
  RecountBytes(sub);
}

void AcIndex::OnDelete(const Row& row) {
  CellBuf key(x_types_.size());
  CellBuf entry(y_stride_);
  if (!EncodeRow(row, key.data(), entry.data())) return;
  uint64_t hash = KeyHash(key.data());
  SubIndex* sub = shards_[hash % shards_.size()].get();
  std::lock_guard<std::mutex> lock(sub->write_mutex);
  DeleteLocked(sub, key.data(), hash, entry.data());
  RecountBytes(sub);
}

// ---------------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------------

AcIndex::BucketView AcIndex::Find(const SubIndex& sub, const Cell* key,
                                  uint64_t hash) const {
  size_t slot = FindKeySlot(sub, key, hash);
  if (slot == SIZE_MAX) return BucketView{};
  const BucketRun& run = sub.runs[static_cast<uint32_t>(sub.key_slots[slot])];
  return BucketView{sub.entry_cells.data() + run.offset * y_stride_,
                    sub.mults.data() + run.offset, this, run.size};
}

AcIndex::BucketView AcIndex::LookupWithCounts(const ValueVec& key) const {
  CellBuf cells(x_types_.size());
  uint64_t hash = 0;
  if (!EncodeProbe(key, cells.data(), &hash)) return BucketView{};
  return Find(*shards_[hash % shards_.size()], cells.data(), hash);
}

void AcIndex::LookupBatch(const ValueVec* keys, size_t count,
                          BucketView* out) const {
  CellBuf cells(x_types_.size());
  uint64_t hash = 0;
  for (size_t i = 0; i < count; ++i) {
    out[i] = EncodeProbe(keys[i], cells.data(), &hash)
                 ? Find(*shards_[hash % shards_.size()], cells.data(), hash)
                 : BucketView{};
  }
}

void AcIndex::LookupBatch(const ValueVec* keys, size_t count, BucketView* out,
                          TaskPool* pool) const {
  size_t num_shards = shards_.size();
  if (num_shards == 1 || count < kShardedProbeMin) {
    LookupBatch(keys, count, out);
    return;
  }
  // Encode every key, then counting-sort the key positions by sub-index
  // and resolve each shard's group as one unit. Results scatter into the
  // caller's slots, so the merged answer order is the caller's key order
  // by construction — no merge step, no schedule dependence. Keys that
  // cannot match get the empty bucket here and join no group.
  size_t arity = x_types_.size();
  std::vector<Cell> cells(count * arity);
  std::vector<uint64_t> hashes(count);
  std::vector<uint32_t> shard_of(count);
  std::vector<uint32_t> begin(num_shards + 2, 0);
  for (size_t i = 0; i < count; ++i) {
    bool ok = EncodeProbe(keys[i], cells.data() + i * arity, &hashes[i]);
    uint32_t s = ok ? static_cast<uint32_t>(hashes[i] % num_shards)
                    : static_cast<uint32_t>(num_shards);
    if (!ok) out[i] = BucketView{};
    shard_of[i] = s;
    ++begin[s + 1];
  }
  for (size_t s = 0; s <= num_shards; ++s) begin[s + 1] += begin[s];
  std::vector<uint32_t> grouped(count);
  {
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    for (size_t i = 0; i < count; ++i) {
      grouped[cursor[shard_of[i]]++] = static_cast<uint32_t>(i);
    }
  }
  auto probe_shard = [&](size_t s) {
    const SubIndex& sub = *shards_[s];
    for (uint32_t j = begin[s]; j < begin[s + 1]; ++j) {
      uint32_t p = grouped[j];
      out[p] = Find(sub, cells.data() + p * arity, hashes[p]);
    }
  };
  if (pool != nullptr && pool->num_threads() > 0) {
    pool->ParallelFor(num_shards, probe_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) probe_shard(s);
  }
}

// ---------------------------------------------------------------------------
// Durability.
// ---------------------------------------------------------------------------

void AcIndex::ForEachBucket(
    const std::function<void(const ValueVec& key, const BucketView& ys)>& fn)
    const {
  size_t arity = x_types_.size();
  ValueVec key(arity);
  for (const std::unique_ptr<SubIndex>& sub : shards_) {
    for (uint32_t id = 0; id < sub->runs.size(); ++id) {
      const BucketRun& run = sub->runs[id];
      if (run.size == 0) continue;  // a free key id
      const Cell* cells = sub->key_cells.data() + id * arity;
      for (size_t k = 0; k < arity; ++k) {
        key[k] = DecodeCell(x_types_[k], cells[k], dict_);
      }
      fn(key, BucketView{sub->entry_cells.data() + run.offset * y_stride_,
                         sub->mults.data() + run.offset, this, run.size});
    }
  }
}

Result<std::unique_ptr<AcIndex>> AcIndex::Restore(
    AccessConstraint constraint, const TableHeap& heap,
    std::vector<RestoredBucket> buckets) {
  BEAS_ASSIGN_OR_RETURN(std::unique_ptr<AcIndex> index,
                        Create(std::move(constraint), heap));
  CellBuf key(index->x_types_.size());
  CellBuf entry(index->y_stride_);
  for (const RestoredBucket& restored : buckets) {
    if (restored.key.size() != index->x_types_.size() ||
        restored.ys.empty() || restored.ys.size() != restored.mults.size() ||
        !index->EncodeKey(
            [&](size_t k) -> const Value& { return restored.key[k]; },
            key.data())) {
      return Status::Internal("restored bucket key does not encode");
    }
    uint64_t hash = index->KeyHash(key.data());
    SubIndex* sub = index->shards_[hash % index->shards_.size()].get();
    if (index->FindKeySlot(*sub, key.data(), hash) != SIZE_MAX) {
      return Status::Internal("duplicate restored bucket key");
    }
    for (size_t i = 0; i < restored.ys.size(); ++i) {
      const Row& y = restored.ys[i];
      if (y.size() != index->y_types_.size() || restored.mults[i] == 0 ||
          restored.mults[i] > UINT32_MAX ||
          !index->EncodeEntry([&](size_t j) -> const Value& { return y[j]; },
                              entry.data())) {
        return Status::Internal("restored Y-value does not encode");
      }
      uint32_t* mult = index->InsertLocked(sub, key.data(), hash, entry.data());
      if (mult == nullptr) return Status::Internal("duplicate restored Y-value");
      *mult = static_cast<uint32_t>(restored.mults[i]);
    }
  }
  index->Finish();
  return index;
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

size_t AcIndex::NumKeys() const {
  size_t n = 0;
  for (const auto& sub : shards_) n += sub->num_keys;
  return n;
}

size_t AcIndex::NumEntries() const {
  size_t n = 0;
  for (const auto& sub : shards_) n += sub->num_entries;
  return n;
}

size_t AcIndex::MaxBucketSize() const {
  size_t max_size = 0;
  for (const auto& sub : shards_) {
    for (const BucketRun& run : sub->runs) {
      max_size = std::max<size_t>(max_size, run.size);
    }
  }
  return max_size;
}

}  // namespace beas
