#include "storage/table_heap.h"

#include <algorithm>
#include <cassert>

namespace beas {

TableHeap::TableHeap(Schema schema)
    : schema_(std::move(schema)), shards_(ConfiguredShardCount()) {
  ncols_ = schema_.NumColumns();
  stride_ = CellStride(ncols_);
  for (const Column& c : schema_.columns()) {
    types_.push_back(c.type);
    has_string_cols_ |= c.type == TypeId::kString;
  }
}

Status TableHeap::ValidateAndCoerce(Row* row) const {
  if (row->size() != schema_.NumColumns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row->size()) +
        " does not match schema (" + std::to_string(schema_.NumColumns()) +
        " columns)");
  }
  for (size_t i = 0; i < row->size(); ++i) {
    TypeId want = schema_.ColumnAt(i).type;
    if ((*row)[i].is_null() || (*row)[i].type() == want) continue;
    BEAS_ASSIGN_OR_RETURN((*row)[i], (*row)[i].CoerceTo(want));
  }
  return Status::OK();
}

Result<SlotId> TableHeap::Insert(Row row) {
  BEAS_RETURN_NOT_OK(ValidateAndCoerce(&row));
  return InsertUnchecked(&row);
}

void TableHeap::InternStringsLocked(Row* row) {
  for (Value& v : *row) {
    if (v.type() != TypeId::kString) continue;
    if (v.dict() == &dict_) continue;  // already ours (re-inserted gather)
    v = Value::DictString(&dict_, dict_.Intern(v.AsString()));
  }
}

void TableHeap::InternStrings(Row* row) {
  std::lock_guard<std::mutex> lock(dict_mutex_);
  InternStringsLocked(row);
}

bool TableHeap::Pack(const Row& row, Cell* out) const {
  assert(row.size() == ncols_);
  std::fill(out + ncols_, out + stride_, Cell{0});
  for (size_t c = 0; c < ncols_; ++c) {
    if (row[c].is_null()) {
      SetCellNull(out, ncols_, c);
    } else if (!EncodeStoredCell(types_[c], row[c], &dict_, &out[c])) {
      return false;
    }
  }
  return true;
}

void TableHeap::RecountShardBytes(Shard* sh) {
  uint64_t bytes = CapacityBytes(sh->cells) + CapacityBytes(sh->live);
  if (bytes == sh->bytes) return;
  bytes_.fetch_add(bytes - sh->bytes, std::memory_order_relaxed);
  sh->bytes = bytes;
}

void TableHeap::RecountDirectoryBytes() {
  uint64_t bytes = CapacityBytes(directory_);
  if (bytes == directory_bytes_) return;
  bytes_.fetch_add(bytes - directory_bytes_, std::memory_order_relaxed);
  directory_bytes_ = bytes;
}

SlotId TableHeap::Place(const Row& row, size_t shard) {
  if (shard == kShardAuto) {
    shard = ShardOf(row);
  } else {
    // A caller-precomputed shard routed the per-shard write lock; if
    // interning ever changed the row's hash, placement would land in a
    // shard whose lock the writer does not hold.
    assert(shard == ShardOf(row));
  }
  Shard& sh = shards_[shard];
  size_t local = sh.live.size();
  SlotId slot;
  {
    // Concurrent writers to *different* shards append here; their own
    // shard stores are protected by Database's per-shard locks.
    std::lock_guard<std::mutex> lock(directory_mutex_);
    slot = directory_.size();
    GrowTo(&directory_, slot + 1);
    directory_[slot] = {static_cast<uint32_t>(shard),
                        static_cast<uint32_t>(local)};
    RecountDirectoryBytes();
  }
  GrowTo(&sh.cells, (local + 1) * stride_);
  bool packed = Pack(row, sh.cells.data() + local * stride_);
  assert(packed && "InsertUnchecked row does not fit its columns' types");
  (void)packed;
  GrowTo(&sh.live, local + 1);
  sh.live[local] = 1;
  RecountShardBytes(&sh);
  ++sh.num_live;
  num_live_.fetch_add(1, std::memory_order_relaxed);
  BumpVersionEpoch();
  return slot;
}

SlotId TableHeap::InsertUnchecked(Row* row, size_t shard) {
  if (has_string_cols_) InternStrings(row);
  return Place(*row, shard);
}

void TableHeap::InsertBatchUnchecked(std::vector<Row> rows) {
  if (has_string_cols_) {
    // One interning pass under one lock acquisition for the whole batch.
    std::lock_guard<std::mutex> lock(dict_mutex_);
    for (Row& row : rows) InternStringsLocked(&row);
  }
  for (const Row& row : rows) Place(row);
}

void TableHeap::ShrinkToFit() {
  for (Shard& sh : shards_) {
    sh.cells.shrink_to_fit();
    sh.live.shrink_to_fit();
    RecountShardBytes(&sh);
  }
  std::lock_guard<std::mutex> lock(directory_mutex_);
  directory_.shrink_to_fit();
  RecountDirectoryBytes();
}

Status TableHeap::Delete(SlotId slot) {
  if (slot >= directory_.size()) {
    return Status::OutOfRange("slot " + std::to_string(slot) + " out of range");
  }
  const SlotRef& ref = directory_[slot];
  Shard& sh = shards_[ref.shard];
  if (!sh.live[ref.local]) {
    return Status::InvalidArgument("slot " + std::to_string(slot) +
                                   " already deleted");
  }
  sh.live[ref.local] = 0;
  --sh.num_live;
  num_live_.fetch_sub(1, std::memory_order_relaxed);
  BumpVersionEpoch();
  return Status::OK();
}

SlotId TableHeap::FindEqual(const Row& probe) const {
  if (probe.size() != ncols_) return kNoSlot;
  // Encode the probe once. A column compares its cell exactly, except
  // where Value equality is numeric across types: a DOUBLE column or a
  // DOUBLE probe value compare as doubles, as Value::Compare does.
  std::vector<Cell> want(stride_, 0);
  std::vector<uint8_t> numeric(ncols_, 0);
  for (size_t c = 0; c < ncols_; ++c) {
    const Value& v = probe[c];
    bool strings = v.type() == TypeId::kString || types_[c] == TypeId::kString;
    if (v.is_null()) {
      SetCellNull(want.data(), ncols_, c);
    } else if (!strings && (types_[c] == TypeId::kDouble ||
                            v.type() == TypeId::kDouble)) {
      numeric[c] = 1;
      want[c] = DoubleCell(v.AsDouble());
    } else if (!EncodeStoredCell(types_[c], v, &dict_, &want[c])) {
      return kNoSlot;  // no stored value of this column can equal it
    }
  }
  for (SlotId slot = 0; slot < directory_.size(); ++slot) {
    if (!IsLive(slot)) continue;
    const Cell* cells = CellsAt(slot);
    bool equal = std::equal(cells + ncols_, cells + stride_,
                            want.begin() + ncols_);
    for (size_t c = 0; c < ncols_ && equal; ++c) {
      if (CellIsNull(cells, ncols_, c)) continue;
      if (!numeric[c]) {
        equal = cells[c] == want[c];
        continue;
      }
      double a = types_[c] == TypeId::kDouble
                     ? CellDouble(cells[c])
                     : static_cast<double>(static_cast<int64_t>(cells[c]));
      double b = CellDouble(want[c]);
      equal = !(a < b) && !(a > b);
    }
    if (equal) return slot;
  }
  return kNoSlot;
}

Row TableHeap::DecodeRow(const Cell* cells) const {
  Row row;
  row.reserve(ncols_);
  for (size_t c = 0; c < ncols_; ++c) row.push_back(Decode(cells, c));
  return row;
}

Status TableHeap::PackRestored(const Row& row, Cell* out) const {
  if (row.size() != ncols_ || !Pack(row, out)) {
    return Status::Corruption("restored row " + RowToString(row) +
                              " does not fit the schema " +
                              schema_.ToString());
  }
  return Status::OK();
}

Status TableHeap::RestoreContent(
    std::vector<ShardContent> shards,
    const std::vector<std::pair<uint32_t, uint32_t>>& directory,
    int64_t shard_key_col) {
  if (!directory_.empty() || num_live_.load() != 0) {
    return Status::Internal("TableHeap::RestoreContent on non-empty heap");
  }
  if (shards.empty() || shards.size() > kMaxStorageShards) {
    return Status::Internal("TableHeap::RestoreContent bad shard count");
  }
  shards_.clear();
  shards_.resize(shards.size());
  bytes_.store(0, std::memory_order_relaxed);
  size_t total_slots = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].cells.size() != shards[s].live.size() * stride_) {
      return Status::Internal("TableHeap::RestoreContent shard size mismatch");
    }
    Shard& sh = shards_[s];
    sh.cells = std::move(shards[s].cells);
    sh.live = std::move(shards[s].live);
    for (uint8_t flag : sh.live) sh.num_live += flag != 0;
    total_slots += sh.live.size();
    RecountShardBytes(&sh);
  }
  if (directory.size() != total_slots) {
    return Status::Internal("TableHeap::RestoreContent directory size " +
                            std::to_string(directory.size()) + " != slots " +
                            std::to_string(total_slots));
  }
  directory_.reserve(directory.size());
  size_t num_live = 0;
  for (const auto& ref : directory) {
    if (ref.first >= shards_.size() ||
        ref.second >= shards_[ref.first].live.size()) {
      return Status::Internal("TableHeap::RestoreContent directory ref "
                              "out of range");
    }
    directory_.push_back({ref.first, ref.second});
    num_live += shards_[ref.first].live[ref.second] != 0;
  }
  directory_bytes_ = 0;
  RecountDirectoryBytes();
  num_live_.store(num_live, std::memory_order_relaxed);
  BumpVersionEpoch();
  if (shard_key_col >= 0 &&
      static_cast<size_t>(shard_key_col) < schema_.NumColumns()) {
    shard_key_col_ = shard_key_col;
  }
  return Status::OK();
}

std::vector<Row> TableHeap::Snapshot() const {
  std::vector<Row> out;
  out.reserve(NumRows());
  for (Iterator it = Begin(); it.Valid(); it.Next()) out.push_back(it.row());
  return out;
}

}  // namespace beas
