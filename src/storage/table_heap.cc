#include "storage/table_heap.h"

#include <cassert>

namespace beas {

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
  return InsertUnchecked(std::move(row));
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

SlotId TableHeap::Place(Row row, const Row** stored, size_t shard) {
  if (shard == kShardAuto) {
    shard = ShardOf(row);
  } else {
    // A caller-precomputed shard routed the per-shard write lock; if
    // interning ever changed the row's hash, placement would land in a
    // shard whose lock the writer does not hold.
    assert(shard == ShardOf(row));
  }
  Shard& sh = shards_[shard];
  SlotId slot;
  {
    // Concurrent writers to *different* shards append here; their own
    // shard stores are protected by Database's per-shard locks.
    std::lock_guard<std::mutex> lock(directory_mutex_);
    slot = directory_.size();
    directory_.push_back({static_cast<uint32_t>(shard),
                          static_cast<uint32_t>(sh.rows.size())});
  }
  sh.rows.push_back(std::move(row));
  sh.live.push_back(1);
  ++sh.num_live;
  num_live_.fetch_add(1, std::memory_order_relaxed);
  BumpVersionEpoch();
  if (stored != nullptr) *stored = &sh.rows.back();
  return slot;
}

SlotId TableHeap::InsertUnchecked(Row row, const Row** stored, size_t shard) {
  if (has_string_cols_) InternStrings(&row);
  return Place(std::move(row), stored, shard);
}

void TableHeap::InsertBatchUnchecked(std::vector<Row> rows) {
  if (has_string_cols_) {
    // One interning pass under one lock acquisition for the whole batch.
    std::lock_guard<std::mutex> lock(dict_mutex_);
    for (Row& row : rows) InternStringsLocked(&row);
  }
  {
    std::lock_guard<std::mutex> lock(directory_mutex_);
    directory_.reserve(directory_.size() + rows.size());
  }
  for (Row& row : rows) Place(std::move(row));
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

Status TableHeap::RestoreContent(
    std::vector<std::vector<Row>> shard_rows,
    std::vector<std::vector<uint8_t>> shard_live,
    const std::vector<std::pair<uint32_t, uint32_t>>& directory,
    int64_t shard_key_col) {
  if (!directory_.empty() || num_live_.load() != 0) {
    return Status::Internal("TableHeap::RestoreContent on non-empty heap");
  }
  if (shard_rows.size() != shard_live.size() || shard_rows.empty() ||
      shard_rows.size() > kMaxStorageShards) {
    return Status::Internal("TableHeap::RestoreContent bad shard count");
  }
  shards_.clear();
  shards_.resize(shard_rows.size());
  size_t total_slots = 0;
  for (size_t s = 0; s < shard_rows.size(); ++s) {
    if (shard_rows[s].size() != shard_live[s].size()) {
      return Status::Internal("TableHeap::RestoreContent shard size mismatch");
    }
    Shard& sh = shards_[s];
    sh.rows = std::move(shard_rows[s]);
    sh.live = std::move(shard_live[s]);
    for (uint8_t flag : sh.live) sh.num_live += flag != 0;
    total_slots += sh.rows.size();
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
        ref.second >= shards_[ref.first].rows.size()) {
      return Status::Internal("TableHeap::RestoreContent directory ref "
                              "out of range");
    }
    directory_.push_back({ref.first, ref.second});
    num_live += shards_[ref.first].live[ref.second] != 0;
  }
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
