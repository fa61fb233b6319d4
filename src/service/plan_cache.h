#ifndef BEAS_SERVICE_PLAN_CACHE_H_
#define BEAS_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "binder/prepared_query.h"
#include "bounded/bounded_plan.h"
#include "bounded/plan_optimizer.h"
#include "bounded/step_program.h"
#include "service/template_key.h"

namespace beas {

/// \brief Aggregate plan-cache telemetry.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      ///< LRU capacity evictions
  uint64_t invalidations = 0;  ///< entries dropped by schema/DDL events
  uint64_t uncacheable = 0;    ///< queries that bypassed the cache
  size_t entries = 0;          ///< current resident entries

  std::string ToString() const;
};

/// \brief A sharded, mutex-guarded LRU cache mapping query templates to
/// their online-pipeline decisions: the coverage verdict, the bounded-plan
/// skeleton for covered templates, and the partially-bounded fallback
/// choice for non-covered ones.
///
/// Sharding keeps reader threads from serializing on one lock; each shard
/// is an independent LRU. Entries are immutable and handed out as
/// shared_ptr, so an entry being evicted or invalidated while another
/// thread executes from it is safe.
///
/// Invalidation granularity is the *table*: every entry is tagged with the
/// tables its template touches, and schema events (constraint
/// registration/unregistration, bound adjustment, DDL) evict exactly the
/// entries touching the affected table. Plain inserts/deletes are NOT
/// invalidation events: AcIndex maintenance keeps cached plans valid.
///
/// ## Typed, frozen-parameter variants
///
/// One masked text can need several bindings. Every literal slot fixes
/// its type (an INT `7` and a DOUBLE `7.5` bind to different probe keys),
/// and some slots are *frozen* (see PreparedQuery): their value steered a
/// binder decision (e.g. `ORDER BY 1` vs `ORDER BY 2`). Each LRU node
/// therefore holds a small set of variants keyed by the type of every
/// slot plus the value of every frozen slot; the param-aware Lookup
/// returns the variant that accepts the incoming parameters
/// (AcceptsParams), and Insert replaces only the same-signature variant —
/// INT and DOUBLE spellings, or `ORDER BY 1` and `ORDER BY 2` instances,
/// coexist instead of evicting each other on every execution.
class PlanCache {
 public:
  /// Variants retained per template before the oldest is dropped.
  static constexpr size_t kMaxVariantsPerTemplate = 8;
  /// \brief One cached template decision.
  struct Entry {
    bool covered = false;
    bool unsatisfiable = false;
    /// Covered: the minimum-bound plan skeleton. Its fetch-key constants
    /// are those of the query that populated the entry; every reuse
    /// rebinds them against the new instance (RebindPlanConstants).
    BoundedPlan plan;
    uint64_t nodes_explored = 0;  ///< search effort saved per hit
    std::string reason;           ///< diagnosis when not covered

    /// Not covered: the partial-plan optimizer's cached choice. Only
    /// meaningful when `partial_computed` (the strict-bounded path learns
    /// a template is not covered without ever running the subset search).
    bool partial_computed = false;
    PartialPlanChoice partial;

    /// The template's binding, prepared for parameter substitution so a
    /// hit skips parse + bind entirely. Never null in a cached entry.
    std::shared_ptr<const PreparedQuery> prepared;

    /// Covered templates: the vectorized executor's compiled step
    /// programs (resolved indices, layouts, predicate programs) — built
    /// once per template, reused by every instance. Null when compilation
    /// failed or the template is not covered. Invalidated with the entry.
    std::shared_ptr<const CompiledPlan> compiled;

    /// Precomputed ExecutionDecision text for covered cache hits.
    std::string covered_explanation;

    std::vector<std::string> tables;  ///< invalidation tags, lowercased
  };

  explicit PlanCache(size_t capacity = 1024, size_t num_shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the variant whose prepared binding accepts `params` (slot
  /// types and frozen values), or nullptr. Touches the LRU position on a
  /// hit only.
  std::shared_ptr<const Entry> Lookup(const QueryTemplate& key,
                                      const std::vector<Value>& params);

  /// Inserts or replaces the same-signature variant for `key`,
  /// evicting the shard's least recently used template when over capacity
  /// and the oldest variant when a template exceeds
  /// kMaxVariantsPerTemplate.
  void Insert(const QueryTemplate& key, std::shared_ptr<const Entry> entry);

  /// Drops every entry whose template touches `table` (case-insensitive).
  void InvalidateTable(const std::string& table);

  /// Drops everything.
  void Clear();

  /// Counts a query that bypassed the cache (uncacheable template).
  void NoteUncacheable() { uncacheable_.fetch_add(1); }

  PlanCacheStats stats() const;

 private:
  /// All cached variants of one template, most recently used first.
  struct Node {
    std::vector<std::shared_ptr<const Entry>> variants;
  };

  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used. Pairs of (canonical key, variants).
    std::list<std::pair<std::string, Node>> lru;
    std::unordered_map<std::string, decltype(lru)::iterator> map;
    size_t entry_count = 0;  ///< Σ variants, kept O(1) for stats()
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  Shard& ShardFor(const QueryTemplate& key) {
    return *shards_[key.hash % shards_.size()];
  }

  size_t capacity_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> uncacheable_{0};
};

}  // namespace beas

#endif  // BEAS_SERVICE_PLAN_CACHE_H_
