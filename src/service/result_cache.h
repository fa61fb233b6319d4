#ifndef BEAS_SERVICE_RESULT_CACHE_H_
#define BEAS_SERVICE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/beas_service.h"

namespace beas {

/// \brief Aggregate result-cache telemetry (mirrored into beas_stats as
/// result_cache_* gauges).
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      ///< dropped by the byte bound (LRU)
  uint64_t invalidations = 0;  ///< dropped stale: epoch bump or hard event
  size_t entries = 0;          ///< resident entries
  size_t bytes = 0;            ///< resident payload bytes

  std::string ToString() const;
};

/// \brief A sharded, byte-bounded LRU of materialized query answers,
/// layered *over* the template plan cache: where the plan cache saves the
/// coverage search, this saves the evaluation itself.
///
/// Key = the canonical template text plus the frozen parameter values and
/// the mode/budget class (serialized by the service); value = the full
/// QueryResponse payload and, per source table, the table's data version
/// epoch at materialization time.
///
/// ## Invalidation: lazy epochs for writes, hard eviction for everything
/// else
///
/// Unlike plans, materialized answers ARE invalidated by plain writes.
/// Every mutation funnelled through the per-shard write path
/// (TableHeap::Place / Delete — Insert, InsertBatch, WAL-applied writes,
/// restores) bumps that table's version epoch; nothing on the write path
/// touches this cache. A reader that finds an entry revalidates it by
/// comparing the stored epochs against the live tables *while holding
/// Database::ReadScope* — which excludes every writer, so epoch equality
/// is exactly "the data these rows were computed from is unchanged".
/// Stale entries are dropped by the reader that caught them
/// (RemoveStale), counted as invalidations.
///
/// Maintenance / DDL / constraint events keep the
/// plan cache's hard-evict semantics: the service routes the same hooks
/// into InvalidateTable / Clear here.
///
/// ## Byte bound
///
/// The cache is bounded by payload bytes (`max_bytes`, split evenly
/// across shards), not entry count — answers range from empty to huge.
/// An entry larger than a whole shard's budget is simply not cached.
class ResultCache {
 public:
  /// \brief One materialized answer.
  struct Entry {
    /// The response as built by the uncached path, strings detached from
    /// the dictionary. Per-request flags (cache_hit, result_cache_hit)
    /// are stored false and set by the serving path on each hit.
    QueryResponse response;
    /// (lowercased table name, version epoch at materialization), for
    /// every table the answer was computed from.
    std::vector<std::pair<std::string, uint64_t>> table_epochs;
    /// Payload accounting (ApproxResponseBytes + key size).
    size_t bytes = 0;
  };

  explicit ResultCache(size_t max_bytes = 64 << 20, size_t num_shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the resident entry for `key` (touching its LRU position) or
  /// nullptr (counting a miss). A non-null return is NOT yet a hit: the
  /// caller must epoch-validate and then call either NoteHit() or
  /// RemoveStale().
  std::shared_ptr<const Entry> Lookup(uint64_t hash, const std::string& key);

  /// Counts one validated hit.
  void NoteHit() { hits_.fetch_add(1, std::memory_order_relaxed); }

  /// Drops `key` after its epoch validation failed; counts an
  /// invalidation AND a miss (the caller falls through to evaluation).
  void RemoveStale(uint64_t hash, const std::string& key);

  /// Inserts (or replaces) `key`, then evicts least-recently-used entries
  /// until the shard is back under its byte budget. Oversized entries are
  /// dropped on the floor.
  void Insert(uint64_t hash, const std::string& key,
              std::shared_ptr<const Entry> entry);

  /// Hard eviction: drops every entry that read `table` (lowercase).
  void InvalidateTable(const std::string& table);

  /// Drops everything (counted as invalidations).
  void Clear();

  ResultCacheStats stats() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used.
    std::list<std::pair<std::string, std::shared_ptr<const Entry>>> lru;
    std::unordered_map<std::string, decltype(lru)::iterator> map;
    size_t bytes = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  Shard& ShardFor(uint64_t hash) { return *shards_[hash % shards_.size()]; }

  size_t bytes_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

/// Accounting helper: the approximate resident size of a response payload
/// (row values with string bodies, decision/diagnostic strings, struct
/// overhead). Deliberately an overestimate-leaning approximation — the
/// byte bound is a resource knob, not an audit.
size_t ApproxResponseBytes(const QueryResponse& response);

}  // namespace beas

#endif  // BEAS_SERVICE_RESULT_CACHE_H_
