#include "asx/ac_index.h"

#include "common/task_pool.h"

namespace beas {

namespace {

/// Key sets below this size are probed with the plain per-key loop: the
/// partition pass plus a pool dispatch would cost more than the probes
/// themselves. Matches the executor's serial cutoff for single-shard
/// chunked fan-out, so small per-step batches never pay fan-out overhead
/// on either path.
constexpr size_t kShardedProbeMin = 1024;

}  // namespace

AcIndex::AcIndex(AccessConstraint constraint, std::vector<size_t> x_cols,
                 std::vector<size_t> y_cols, size_t num_shards)
    : constraint_(std::move(constraint)),
      x_cols_(std::move(x_cols)),
      y_cols_(std::move(y_cols)) {
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<SubIndex>());
  }
}

Result<std::unique_ptr<AcIndex>> AcIndex::Build(AccessConstraint constraint,
                                                const TableHeap& heap) {
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> x_cols,
                        constraint.ResolveX(heap.schema()));
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> y_cols,
                        constraint.ResolveY(heap.schema()));
  std::unique_ptr<AcIndex> index(
      new AcIndex(std::move(constraint), std::move(x_cols), std::move(y_cols),
                  heap.num_shards()));
  index->dict_ = heap.dict();
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    index->OnInsert(it.row());
  }
  return index;
}

ValueVec AcIndex::KeyOf(const Row& row) const {
  ValueVec key;
  key.reserve(x_cols_.size());
  for (size_t c : x_cols_) key.push_back(row[c]);
  return key;
}

Row AcIndex::YProjectionOf(const Row& row) const {
  Row y;
  y.reserve(y_cols_.size());
  for (size_t c : y_cols_) y.push_back(row[c]);
  return y;
}

const std::vector<Row>* AcIndex::Lookup(const ValueVec& key) const {
  const SubIndex& sub = *shards_[ShardOfKey(key)];
  auto it = sub.buckets.find(key);
  return it == sub.buckets.end() ? nullptr : &it->second.distinct_y;
}

AcIndex::BucketView AcIndex::FindIn(const SubIndex& sub,
                                    const ValueVec& key) const {
  auto it = sub.buckets.find(key);
  if (it == sub.buckets.end()) return BucketView{};
  return BucketView{&it->second.distinct_y, &it->second.mults};
}

AcIndex::BucketView AcIndex::LookupWithCounts(const ValueVec& key) const {
  return FindIn(*shards_[ShardOfKey(key)], key);
}

void AcIndex::LookupBatch(const ValueVec* keys, size_t count,
                          BucketView* out) const {
  for (size_t i = 0; i < count; ++i) {
    out[i] = FindIn(*shards_[ShardOfKey(keys[i])], keys[i]);
  }
}

void AcIndex::LookupBatch(const ValueVec* keys, size_t count, BucketView* out,
                          TaskPool* pool) const {
  size_t num_shards = shards_.size();
  if (num_shards == 1 || count < kShardedProbeMin) {
    LookupBatch(keys, count, out);
    return;
  }
  // Counting-sort the key positions by sub-index, then resolve each
  // shard's group as one unit. Results scatter into the caller's slots,
  // so the merged answer order is the caller's key order by construction
  // — no merge step, no schedule dependence.
  std::vector<uint32_t> shard_of(count);
  std::vector<uint32_t> begin(num_shards + 1, 0);
  for (size_t i = 0; i < count; ++i) {
    uint32_t s = static_cast<uint32_t>(ShardOfKey(keys[i]));
    shard_of[i] = s;
    ++begin[s + 1];
  }
  for (size_t s = 0; s < num_shards; ++s) begin[s + 1] += begin[s];
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
      out[p] = FindIn(sub, keys[p]);
    }
  };
  if (pool != nullptr && pool->num_threads() > 0) {
    pool->ParallelFor(num_shards, probe_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) probe_shard(s);
  }
}

void AcIndex::OnInsert(const Row& row) {
  ValueVec key = KeyOf(row);
  for (const Value& v : key) {
    if (v.is_null()) return;  // NULL X-values are not indexed
  }
  SubIndex& sub = *shards_[ShardOfKey(key)];
  // Writers whose rows hash to different heap shards may reach the same
  // sub-index; per-key order still equals the commit order they observed.
  std::lock_guard<std::mutex> lock(sub.write_mutex);
  Bucket& bucket = sub.buckets[std::move(key)];
  Row y = YProjectionOf(row);
  auto it = bucket.positions.find(y);
  if (it != bucket.positions.end()) {
    ++bucket.mults[it->second];
    return;
  }
  bucket.positions.emplace(y, bucket.distinct_y.size());
  bucket.distinct_y.push_back(std::move(y));
  bucket.mults.push_back(1);
  ++sub.num_entries;
}

void AcIndex::OnDelete(const Row& row) {
  ValueVec key = KeyOf(row);
  for (const Value& v : key) {
    if (v.is_null()) return;
  }
  SubIndex& sub = *shards_[ShardOfKey(key)];
  std::lock_guard<std::mutex> lock(sub.write_mutex);
  auto bucket_it = sub.buckets.find(key);
  if (bucket_it == sub.buckets.end()) return;
  Bucket& bucket = bucket_it->second;
  Row y = YProjectionOf(row);
  auto it = bucket.positions.find(y);
  if (it == bucket.positions.end()) return;
  size_t pos = it->second;
  if (--bucket.mults[pos] > 0) return;
  // Multiplicity hit zero: remove the distinct Y-value. Swap-with-last
  // keeps removal O(1); fix the moved row's recorded position.
  size_t last = bucket.distinct_y.size() - 1;
  bucket.positions.erase(it);
  if (pos != last) {
    bucket.distinct_y[pos] = std::move(bucket.distinct_y[last]);
    bucket.mults[pos] = bucket.mults[last];
    bucket.positions[bucket.distinct_y[pos]] = pos;
  }
  bucket.distinct_y.pop_back();
  bucket.mults.pop_back();
  --sub.num_entries;
  if (bucket.distinct_y.empty()) sub.buckets.erase(bucket_it);
}

void AcIndex::ForEachBucket(
    const std::function<void(const ValueVec& key, const std::vector<Row>& ys,
                             const std::vector<size_t>& mults)>& fn) const {
  for (const std::unique_ptr<SubIndex>& sub : shards_) {
    for (const auto& [key, bucket] : sub->buckets) {
      fn(key, bucket.distinct_y, bucket.mults);
    }
  }
}

Result<std::unique_ptr<AcIndex>> AcIndex::Restore(
    AccessConstraint constraint, const TableHeap& heap,
    std::vector<RestoredBucket> buckets) {
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> x_cols,
                        constraint.ResolveX(heap.schema()));
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> y_cols,
                        constraint.ResolveY(heap.schema()));
  std::unique_ptr<AcIndex> index(
      new AcIndex(std::move(constraint), std::move(x_cols), std::move(y_cols),
                  heap.num_shards()));
  index->dict_ = heap.dict();
  for (RestoredBucket& restored : buckets) {
    if (restored.ys.size() != restored.mults.size()) {
      return Status::Internal("restored bucket ys/mults size mismatch");
    }
    SubIndex& sub = *index->shards_[index->ShardOfKey(restored.key)];
    Bucket& bucket = sub.buckets[std::move(restored.key)];
    if (!bucket.distinct_y.empty()) {
      return Status::Internal("duplicate restored bucket key");
    }
    bucket.distinct_y = std::move(restored.ys);
    bucket.mults = std::move(restored.mults);
    for (size_t i = 0; i < bucket.distinct_y.size(); ++i) {
      bucket.positions.emplace(bucket.distinct_y[i], i);
    }
    sub.num_entries += bucket.distinct_y.size();
  }
  return index;
}

size_t AcIndex::NumKeys() const {
  size_t n = 0;
  for (const auto& sub : shards_) n += sub->buckets.size();
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
    for (const auto& [key, bucket] : sub->buckets) {
      max_size = std::max(max_size, bucket.distinct_y.size());
    }
  }
  return max_size;
}

uint64_t AcIndex::ApproxBytes() const {
  // Values are tagged unions: ~32 bytes inline + string bodies ignored.
  constexpr uint64_t kValueBytes = 32;
  constexpr uint64_t kBucketOverhead = 64;
  uint64_t key_bytes = static_cast<uint64_t>(NumKeys()) *
                       (x_cols_.size() * kValueBytes + kBucketOverhead);
  uint64_t entry_bytes = static_cast<uint64_t>(NumEntries()) *
                         (y_cols_.size() * kValueBytes + 16);
  return key_bytes + entry_bytes;
}

}  // namespace beas
