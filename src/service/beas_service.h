#ifndef BEAS_SERVICE_BEAS_SERVICE_H_
#define BEAS_SERVICE_BEAS_SERVICE_H_

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bounded/beas_session.h"
#include "common/task_pool.h"
#include "durability/durability_manager.h"
#include "engine/database.h"
#include "maintenance/maintenance.h"
#include "service/plan_cache.h"
#include "service/template_key.h"
#include "sql/sql_template.h"

namespace beas {

/// \brief Tuning knobs for a BeasService.
struct ServiceOptions {
  size_t num_workers = 4;      ///< threads serving Submit(); clamped to >= 1
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;
  /// Byte bound on the materialized result cache's answer payloads (row
  /// data + diagnostics), split evenly across cache_shards; LRU answers
  /// are evicted past it. 0 disables the result cache outright.
  size_t result_cache_max_bytes = 64u << 20;
  /// Durable mode: set `durability.dir` to a data directory and the
  /// service recovers it on construction and write-ahead-logs every write
  /// from then on (see DurabilityManager). Empty dir = in-memory service,
  /// bit-for-bit the pre-durability behavior.
  durability::DurabilityOptions durability;

  /// \name Overload resilience.
  /// @{
  /// Max in-flight Submit() requests (queued + executing). At capacity,
  /// new submissions are rejected immediately with kResourceExhausted
  /// instead of growing an unbounded backlog.
  size_t max_queue_depth = 256;
  /// Cost-based admission for covered (bounded) queries: the deduced
  /// access bound is the cost unit, and the total admitted in-flight cost
  /// never exceeds this. A query that does not fit whole is *degraded*
  /// first — its fetch budget capped to the remaining grant, the answer
  /// returned with honest η and the `degraded` flag — and rejected with
  /// kResourceExhausted only when no cost remains at all. 0 = off.
  uint64_t max_inflight_cost = 0;
  /// @}

  /// \name Per-tenant admission (the network front door's fairness layer).
  /// @{
  /// Default per-tenant in-flight cost cap, layered *under* the global
  /// pool: a request naming a tenant first reserves against that tenant's
  /// cap (same degrade-then-reject semantics as the global pool), then
  /// carries the tenant grant into the global reservation — so one noisy
  /// tenant can saturate neither the service nor another tenant's share.
  /// 0 = per-tenant accounting records usage but never degrades/rejects.
  /// Requests with an empty tenant id bypass per-tenant admission.
  uint64_t tenant_max_inflight_cost = 0;
  /// Per-tenant overrides of tenant_max_inflight_cost, keyed by tenant id.
  std::unordered_map<std::string, uint64_t> tenant_cost_caps;
  /// @}
};

/// \brief Per-request execution options: deadline, cancellation, budget,
/// and the minimum acceptable coverage. These apply to covered (bounded)
/// executions, kApproximate included — the paths whose resource story the
/// paper makes deterministic; partially-bounded / conventional fallbacks
/// execute as before.
struct QueryOptions {
  /// Wall-clock deadline in milliseconds; 0 = none. An expired deadline
  /// behaves exactly like budget exhaustion: a deterministic partial
  /// answer with honest η and `timed_out` set — never an error.
  int64_t timeout_millis = 0;
  /// External cancellation token (client disconnect, admission revoke);
  /// must outlive the call. Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-query fetch budget; 0 = exact. Admission degradation may cap it
  /// further.
  uint64_t fetch_budget = 0;
  /// When positive, an answer whose coverage η falls below this is
  /// refused with kResourceExhausted instead of returned — for clients
  /// that would rather fail fast than act on a too-partial answer.
  double min_eta = 0.0;
};

/// \brief Monotonic resilience counters (plus the live queue gauge),
/// reported by beas_stats.
struct ServiceCounters {
  uint64_t queries_timed_out_total = 0;  ///< answers returned past deadline
  uint64_t queries_rejected_total = 0;   ///< admission / queue / min_eta
  uint64_t queries_degraded_total = 0;   ///< budget capped by admission
  uint64_t submit_queue_depth = 0;       ///< Submit() in flight right now
  uint64_t inflight_cost = 0;            ///< admitted cost units in flight
};

/// \brief Per-tenant admission counters, queryable per tenant and
/// aggregated into beas_stats (tenant_rejected_total and the
/// tenant_inflight_cost_max high-water mark).
struct TenantCounters {
  uint64_t requests_total = 0;      ///< read-side requests naming the tenant
  uint64_t rejected_total = 0;      ///< tenant-cap rejections
  uint64_t degraded_total = 0;      ///< tenant cap shrank the grant
  uint64_t inflight_cost = 0;       ///< admitted cost in flight right now
  uint64_t inflight_cost_max = 0;   ///< high-water mark of inflight_cost
};

/// \brief How Query() is allowed to answer — the read-side mode enum the
/// wire envelope carries.
enum class QueryMode : uint8_t {
  kAuto = 0,         ///< bounded if covered, else partial/conventional
  kBoundedOnly = 1,  ///< strict: kNotCovered error when the checker rejects
  kApproximate = 2,  ///< budgeted approximation (requires approx_budget)
  kCheckOnly = 3,    ///< coverage verdict only; no execution
};

/// Stable lowercase token for a mode ("auto", "bounded", "approx",
/// "check") — used on the wire's JSON side and by the CLI.
const char* QueryModeName(QueryMode mode);

/// Parses a QueryModeName token (kInvalidArgument on anything else).
Result<QueryMode> ParseQueryMode(const std::string& token);

/// \brief The unified read-side request envelope: one serializable
/// struct that every caller — in-process and both wire protocols — hands
/// to BeasService::Query, so there is exactly one admission path and one
/// telemetry story. Callers brace-initialize the common fields:
/// `svc.Query({sql})`, `svc.Query({sql, QueryMode::kBoundedOnly, options})`.
struct QueryRequest {
  // A constructor rather than aggregate init, so the short brace forms
  // compile without -Wmissing-field-initializers noise.
  QueryRequest(std::string sql_in = {}, QueryMode mode_in = QueryMode::kAuto,
               QueryOptions options_in = {})
      : sql(std::move(sql_in)), mode(mode_in), options(options_in) {}

  std::string sql;
  QueryMode mode = QueryMode::kAuto;
  QueryOptions options;
  /// Tenant id for per-tenant admission and accounting; empty = the
  /// anonymous tenant (global admission only).
  std::string tenant;
  /// Fetch budget for kApproximate (must be positive in that mode).
  uint64_t approx_budget = 0;
};

/// \brief The unified response envelope: a query answer plus the
/// service-level telemetry, for every mode.
///
/// Mode-specific fields: kCheckOnly fills `covered`/`unsatisfiable`/
/// `reason` and leaves `result` empty; kApproximate fills
/// `approx_exact`/`approx_budget`/`tuples_fetched`; the execution modes
/// fill `result`/`decision` and the resilience telemetry.
struct QueryResponse {
  QueryResult result;
  BeasSession::ExecutionDecision decision;
  bool cache_hit = false;   ///< answered from a cached template plan
  bool cacheable = true;    ///< template was eligible for the cache
  /// Answered from the materialized result cache: the rows were served
  /// verbatim from a previous evaluation whose source-table version
  /// epochs still match — no binding, no coverage search, no execution,
  /// no admission reservation.
  bool result_cache_hit = false;
  uint64_t template_hash = 0;
  /// \name Resilience telemetry (bounded executions; defaults elsewhere).
  /// @{
  double eta = 1.0;         ///< coverage lower bound of the answer
  bool degraded = false;    ///< admission capped this query's fetch budget
  bool timed_out = false;   ///< the deadline/cancel expired mid-chain
  /// @}
  /// \name Coverage verdict (kCheckOnly; `covered` is also set by the
  /// execution modes for the wire's benefit).
  /// @{
  bool covered = false;
  bool unsatisfiable = false;
  std::string reason;       ///< diagnosis when not covered
  /// @}
  /// \name Approximation telemetry (kApproximate).
  /// @{
  bool approx_exact = false;    ///< the budget was never binding
  uint64_t approx_budget = 0;   ///< requested fetch budget
  uint64_t tuples_fetched = 0;
  /// @}
};

/// \brief Live wire-server gauges, owned by the service so beas_stats can
/// report them uniformly: an in-process service (no server attached)
/// reports zeros. The network server increments them; everything is a
/// relaxed atomic.
struct NetGauges {
  std::atomic<uint64_t> connections_open{0};
  std::atomic<uint64_t> requests_total{0};   ///< frames decoded into requests
  std::atomic<uint64_t> bytes_in_total{0};
  std::atomic<uint64_t> bytes_out_total{0};
  /// Wire responses served from the materialized result cache.
  std::atomic<uint64_t> result_cache_hits{0};
};

class ResultCache;        // service/result_cache.h
struct ResultCacheStats;  // service/result_cache.h

/// \brief The concurrent query-service layer: the first piece of the
/// serving architecture on the road from the paper's single-session
/// pipeline to a production engine.
///
/// A BeasService owns the full stack — conventional engine (Database),
/// AS catalog (AsCatalog), maintenance module (attached), BEAS session —
/// plus a worker thread pool and a template plan cache, and multiplexes
/// concurrent clients over them under the engine's per-shard
/// single-writer/multi-reader contract (see Database):
///
///  * Reads (Query, and Submit, its queued form) bracket themselves with
///    Database::ReadScope (structural + every storage shard, shared) and
///    run concurrently.
///  * Data writes (Insert / InsertBatch / Delete) go straight to the
///    Database, which locks only the shards the rows hash to — writers
///    to disjoint shards proceed in parallel.
///  * Structural writes (CreateTable / constraint registration /
///    maintenance adjustment) take the structural lock exclusively,
///    excluding everyone.
///
/// ## The template plan cache
///
/// Real workloads are dominated by repeated parameterized templates, and
/// for BEAS the expensive per-query work — the BE checker's coverage
/// search and the partial-plan optimizer's subset search — depends only on
/// the template, not the parameter values. Query therefore normalizes
/// each query (token-level + bound-AST constant lifting), looks its
/// template up in a sharded LRU cache, and on a hit skips straight to
/// execution with the cached plan skeleton, rebinding fetch-key constants
/// to the new parameters. Every mode shares one template identity, so a
/// check-mode miss warms the plan a later kAuto request hits.
/// Value-dependent templates (see QueryTemplate::cacheable) bypass the
/// cache but run the same admitted bounded pipeline.
///
/// ## Maintenance-driven invalidation
///
/// Cached decisions are invalidated by events that change what plans are
/// valid, at table granularity: constraint registration/unregistration,
/// declared-bound adjustments (MaintenanceManager::ApplySuggestions →
/// AsCatalog::AdjustLimit → change listener), and DDL. Plain inserts and
/// deletes do NOT invalidate: the maintenance module incrementally updates
/// the AC indices, which keeps every cached plan's answers exact (its
/// deduced bounds remain valid until the declared N values are adjusted).
class BeasService {
 public:
  explicit BeasService(ServiceOptions options = {});
  ~BeasService();

  BeasService(const BeasService&) = delete;
  BeasService& operator=(const BeasService&) = delete;

  /// \name Write side (structural lock for schema changes; per-shard
  /// locks for data, taken inside Database).
  /// @{
  Result<TableInfo*> CreateTable(const std::string& name,
                                 const Schema& schema);
  Status Insert(const std::string& table, Row row);
  /// Bulk write: the batch's touched shards are each locked once and the
  /// whole batch commits under them (Insert pays the locking per row),
  /// with per-row index maintenance intact. The write path of choice
  /// under churn — readers are blocked once per batch instead of once per
  /// row, and batches whose rows hash to disjoint shards commit in
  /// parallel — and the natural grain for dictionary encoding (the heap
  /// interns the batch in one pass).
  Status InsertBatch(const std::string& table, std::vector<Row> rows);
  Status Delete(const std::string& table, const Row& row);
  Status RegisterConstraint(AccessConstraint constraint);
  Status UnregisterConstraint(const std::string& name);
  /// One maintenance round: revalidate declared bounds against observed
  /// maxima and apply changed suggestions (each firing cache invalidation).
  Status RunAdjustmentCycle(double headroom = 1.2,
                            size_t* changed_out = nullptr);
  Status ApplySuggestions(
      const std::vector<MaintenanceManager::Adjustment>& adjustments);
  std::vector<MaintenanceManager::Adjustment> RevalidateAndSuggest(
      double headroom = 1.2) const;
  /// @}

  /// \name Read side (shared lock; safe from many threads).
  /// @{
  /// THE read entry point: every mode, every tenant, every transport
  /// funnels through it — one template identity, one plan resolution,
  /// one admission path, one telemetry struct.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// Enqueues the request on the worker pool; the future resolves to the
  /// same response Query() would produce. At max_queue_depth in-flight
  /// submissions the call resolves immediately with kResourceExhausted.
  std::future<Result<QueryResponse>> Submit(QueryRequest request);
  /// @}

  /// \name Serving-health metrics.
  /// A kAuto query whose FROM list names only `beas_stats` is answered
  /// from a snapshot of the serving-health counters taken for that query:
  /// plan-cache and result-cache counters, maintenance counters,
  /// storage/dictionary gauges, per-shard storage gauges, durability,
  /// resilience, wire and tenant gauges — one `beas_stats(metric STRING,
  /// value DOUBLE)` row each. The conventional engine evaluates the query
  /// over a private Database holding only that snapshot, so the metrics
  /// never enter this service's catalog, a poll takes no exclusive lock,
  /// and polls are invisible to the plan and result caches. The name is
  /// reserved: CreateTable rejects it, and every other request (other
  /// modes, joins with data tables) sees it as an unknown table.
  /// @{
  static constexpr const char* kStatsTableName = "beas_stats";
  /// @}

  /// \name Durability.
  /// @{
  /// Whether this service runs durable (a durability dir was configured
  /// AND recovery succeeded).
  bool durable() const {
    return durability_ != nullptr && durability_->open_status().ok();
  }
  /// The recovery/open verdict: OK for in-memory services and healthy
  /// durable ones; the recovery error otherwise (the service still serves
  /// reads, but durable writes are refused with this status).
  Status durability_status() const {
    return durability_ == nullptr ? Status::OK() : durability_->open_status();
  }
  /// Forces a checkpoint now (durable mode only).
  Status Checkpoint();
  /// Runs one scrub-and-repair cycle now (durable mode only): re-verifies
  /// on-disk checkpoint segment CRCs, cross-checks in-memory fingerprints
  /// against their checkpoint-time baselines, quarantines corrupt shards,
  /// and repairs from the surviving good copy. kCorruption when something
  /// was found that could not be repaired (the unit stays quarantined).
  Status Scrub(durability::ScrubReport* report = nullptr);
  durability::DurabilityCounters durability_counters() const {
    return durability_ == nullptr ? durability::DurabilityCounters{}
                                  : durability_->counters();
  }
  /// @}

  /// Resilience counters (timeouts, rejections, degradations, queue/cost
  /// gauges); also mirrored into beas_stats.
  ServiceCounters service_counters() const;

  /// Per-tenant admission counters; zeros for a tenant never seen.
  TenantCounters tenant_counters(const std::string& tenant) const;

  /// The wire server's live gauges (mirrored into beas_stats; all zero
  /// while no server is attached). The server increments these directly.
  NetGauges* net_gauges() { return &net_gauges_; }

  PlanCacheStats cache_stats() const { return cache_.stats(); }
  void set_cache_enabled(bool enabled) { cache_enabled_.store(enabled); }
  bool cache_enabled() const { return cache_enabled_.load(); }
  void ClearCache() { cache_.Clear(); }

  /// \name Materialized result cache.
  /// Answers of the execution modes (kAuto / kBoundedOnly) are cached
  /// keyed on (canonical template, parameter values, mode/budget class)
  /// and revalidated against the source tables' version epochs on every
  /// hit — see ResultCache for the invalidation contract.
  /// @{
  ResultCacheStats result_cache_stats() const;
  void set_result_cache_enabled(bool enabled) {
    // result_cache_max_bytes == 0 disables the cache outright: no budget
    // was allocated, so a later enable would turn lookups on against a
    // cache that drops every insert. Keep it permanently off.
    if (enabled && options_.result_cache_max_bytes == 0) return;
    result_cache_enabled_.store(enabled);
  }
  bool result_cache_enabled() const { return result_cache_enabled_.load(); }
  void ClearResultCache();
  /// Templates rewritten into canonical form (commutative-order
  /// normalization) since startup.
  uint64_t template_canonicalizations() const {
    return template_canonicalizations_.load(std::memory_order_relaxed);
  }
  /// Masked spellings held by the canonical-form memo (at most
  /// cache_capacity), and spellings canonicalized on first sight.
  size_t template_memo_entries() const { return canonical_forms_.entries(); }
  uint64_t template_memo_misses() const { return canonical_forms_.misses(); }
  /// @}

  /// \name Setup escape hatches.
  /// Direct access to the owned components, for bulk loading and catalog
  /// setup *before* the service is shared across threads (e.g. TLC
  /// generation). Mutating through these while serving breaks the
  /// single-writer contract that the service otherwise enforces; writes
  /// that bypass AsCatalog also bypass cache invalidation.
  /// @{
  Database* db() { return &db_; }
  AsCatalog* catalog() { return &catalog_; }
  MaintenanceManager* maintenance() { return &maintenance_; }
  const BeasSession& session() const { return session_; }
  /// @}

 private:
  /// Per-tenant admission state: one atomically-reserved pool per tenant,
  /// created on first sight and never removed (tenant populations are
  /// small and long-lived). Pointers stay stable across map growth.
  struct TenantState {
    uint64_t cap = 0;  ///< immutable after creation
    std::atomic<uint64_t> inflight{0};
    std::atomic<uint64_t> inflight_max{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> degraded{0};
  };

  /// Returns the tenant's state, creating it on first sight (null for the
  /// empty/anonymous tenant).
  TenantState* TenantFor(const std::string& tenant);

  /// This request's template identity (TemplateInfo, template_key.h): the
  /// masked template in the canonical form from `canonical_forms_` (the
  /// canonicalizer runs once per masked spelling, not per request). Counts
  /// one canonicalization per request served in canonical form. A SQL
  /// text that fails to mask is a parse error.
  Result<TemplateInfo> PrepareTemplate(const std::string& sql);

  /// \name Serving-health snapshot (see kStatsTableName).
  /// @{
  /// One (metric, value) row per serving-health metric. Per-shard
  /// counters are sampled one shard at a time (ShardReadScope each), so
  /// the sample never holds two shard locks at once and cannot invert
  /// lock order against a per-shard writer; the caller must hold no
  /// Database lock.
  std::vector<Row> SampleStats();
  /// Answers `sql` over a fresh SampleStats() snapshot loaded into a
  /// private Database (conventional engine, detached strings).
  Result<QueryResponse> QueryStatsSnapshot(const std::string& sql);
  /// @}

  /// \name Result-cache plumbing (see ResultCache).
  /// @{
  /// Serialized result-cache key: canonical template text + typed frozen
  /// parameter values + the mode/budget class (mode byte, fetch budget,
  /// min_eta). Empty when the request is ineligible (no template).
  static std::string ResultKeyFor(const TemplateInfo& tinfo, QueryMode mode,
                                  const QueryOptions& qopts);

  /// Epoch-validated lookup; caller holds Database::ReadScope (which
  /// excludes every writer, making epoch equality exact). True = `resp`
  /// is filled with the cached answer, flags set for this serve. A stale
  /// entry is dropped (counted as invalidation) and false returned.
  bool LookupResult(uint64_t hash, const std::string& key,
                    QueryResponse* resp);

  /// Stores an eligible answer (complete, not timed out, η policy met)
  /// with its source tables' version epochs, captured under the same
  /// ReadScope the answer was computed under.
  void MaybeStoreResult(uint64_t hash, const std::string& key,
                        const QueryResponse& resp, const QueryOptions& qopts,
                        const std::vector<std::string>& tables);
  /// @}

  /// One request's plan, resolved once for every mode (ResolvePlan).
  struct ResolvedPlan {
    BoundQuery query;  ///< bound, or instantiated from the cached template
    /// The checker verdict; a covered plan is rebound to this instance's
    /// constants.
    CoverageResult coverage;
    /// Not covered, when the caller asked for it: the partially bounded
    /// fallback choice, rebound to this instance.
    PartialPlanChoice partial;
    /// The resident plan-cache entry — hit or freshly built — whose
    /// compiled step programs the executor runs; null when the request
    /// bypassed the cache.
    std::shared_ptr<const PlanCache::Entry> entry;
    bool cache_hit = false;
    bool cacheable = true;
    uint64_t template_hash = 0;
  };

  /// The one plan-cache pipeline; caller holds the shared lock. A hit
  /// instantiates the cached binding and rebinds the cached plans; a miss
  /// binds the canonical template, checks, builds the entry and inserts
  /// it. Plan cache off or an uncacheable template bind and check without
  /// caching. `want_partial` also resolves a not-covered query's
  /// fallback choice (kAuto).
  Result<ResolvedPlan> ResolvePlan(const TemplateInfo& tinfo,
                                   bool want_partial);

  /// Executor options for a resolved plan: the entry's compiled step
  /// programs, probe fan-out over the worker pool, and per-step telemetry
  /// off on a plan-cache hit.
  BoundedExecOptions ExecOptionsFor(const ResolvedPlan& plan) const;

  /// One admitted reservation against max_inflight_cost (and, when the
  /// request names a tenant, that tenant's cap). `charged`/
  /// `tenant_charged` are released by ReleaseAdmission; `grant` < the
  /// requested bound means the query runs degraded under that budget.
  struct AdmissionTicket {
    uint64_t charged = 0;
    uint64_t tenant_charged = 0;
    TenantState* tenant = nullptr;
    uint64_t grant = 0;
    bool degraded = false;
  };

  /// CAS-reserves up to `bound` cost units: first against the tenant cap
  /// (degrade-then-reject), then the tenant grant against the global
  /// pool. kResourceExhausted when either pool is fully committed; a
  /// partial grant marks the ticket degraded.
  Result<AdmissionTicket> Admit(uint64_t bound, TenantState* tenant);
  void ReleaseAdmission(const AdmissionTicket& ticket);

  /// Covered kAuto / kBoundedOnly execution: admission against the
  /// plan's deduced bound (a partial grant caps the fetch budget), then
  /// RunCovered. Callers fill the decision fields.
  Status RunCoveredAdmitted(const BoundQuery& query, const BoundedPlan& plan,
                            BoundedExecOptions exec_options,
                            const QueryOptions& qopts, TenantState* tenant,
                            QueryResponse* resp);

  /// Shared tail of every covered (bounded) execution, admitted or
  /// self-bounded by an approximation budget: deadline/cancel wiring,
  /// execution, the η / timed_out verdicts on `resp`, and the min_eta
  /// refusal.
  Status RunCovered(const BoundQuery& query, const BoundedPlan& plan,
                    BoundedExecOptions exec_options, const QueryOptions& qopts,
                    QueryResponse* resp);

  /// Builds a miss's cache entry: coverage fields, compiled step programs
  /// plus the prepared template.
  std::shared_ptr<PlanCache::Entry> MakeEntry(const SqlTemplate& masked,
                                              const QueryTemplate& tmpl,
                                              const BoundQuery& query,
                                              const CoverageResult& coverage);

  ServiceOptions options_;
  Database db_;
  AsCatalog catalog_;
  MaintenanceManager maintenance_;
  BeasSession session_;
  PlanCache cache_;
  std::atomic<bool> cache_enabled_{true};

  /// Materialized answers (unique_ptr keeps result_cache.h out of this
  /// header; never null).
  std::unique_ptr<ResultCache> result_cache_;
  std::atomic<bool> result_cache_enabled_;
  std::atomic<uint64_t> template_canonicalizations_{0};
  /// Canonical forms by masked text, bounded by cache_capacity.
  CanonicalFormMemo canonical_forms_;

  /// \name Resilience state (all atomics; no lock discipline).
  /// @{
  std::atomic<uint64_t> inflight_cost_{0};
  std::atomic<uint64_t> submit_queue_depth_{0};
  std::atomic<uint64_t> queries_timed_out_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> queries_degraded_{0};
  /// @}

  /// Tenant registry: shared lock on the hot lookup path, exclusive only
  /// on first sight of a new tenant id. Leaf lock — never held across an
  /// execution or another lock acquisition.
  mutable std::shared_mutex tenants_mutex_;
  std::unordered_map<std::string, std::unique_ptr<TenantState>> tenants_;

  NetGauges net_gauges_;

  /// Serves Submit() query dispatch AND the bounded executor's sharded
  /// index probes (ParallelFor lets the submitting thread participate, so
  /// the two uses never deadlock on each other).
  mutable TaskPool pool_;

  /// Declared last: its destructor joins the WAL drainer threads, which
  /// apply through db_/catalog_ — they must be gone before those die.
  /// Null when the service runs in-memory.
  std::unique_ptr<durability::DurabilityManager> durability_;
};

}  // namespace beas

#endif  // BEAS_SERVICE_BEAS_SERVICE_H_
