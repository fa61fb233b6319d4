#ifndef BEAS_ENGINE_DATABASE_H_
#define BEAS_ENGINE_DATABASE_H_

#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "binder/binder.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "common/shard_config.h"
#include "engine/query_result.h"
#include "exec/executor.h"
#include "plan/engine_profile.h"
#include "plan/planner.h"
#include "sql/sql_template.h"

namespace beas {

/// \brief The conventional relational engine facade: catalog + parser +
/// binder + planner + executor.
///
/// BEAS "can be built on top of any conventional DBMS" (§1); this class is
/// that DBMS substrate. The bounded layer (src/bounded) attaches to it via
/// a BeasSession, which adds the access-schema catalog and the bounded
/// planner/executor on top.
///
/// ## Thread-safety contract (per-shard single writer / multiple readers)
///
/// Storage is hash-partitioned (see TableHeap); the contract follows the
/// partitioning. The database owns two layers of locks:
///
///  * a *structural* shared_mutex — DDL (CreateTable), and every caller
///    that mutates the catalog, the access schema, or declared bounds,
///    takes it exclusively; readers and data writers take it shared;
///  * a table of `ConfiguredShardCount()` per-shard shared_mutexes — a
///    reader share-locks all of them (ReadScope), a data write
///    exclusively locks only the shards its rows hash to.
///
/// Consequences: readers run concurrently with each other; a data write
/// excludes readers (they hold every shard) but *not* writers to other
/// shards — concurrent InsertBatch calls whose rows land on disjoint
/// shards proceed in parallel, each locking its shards once. All locks
/// are acquired structural-first then shards in ascending order, so the
/// scheme is deadlock-free. Write paths self-lock; read paths do NOT —
/// a concurrent caller (e.g. BeasService) brackets its reads with
/// ReadScope. Hooks run on the writer's thread, inside its locked
/// section; they must not re-enter the write path (enforced: a
/// re-entrant write from a hook returns Status::Internal("concurrent
/// write ...")). RegisterWriteHook / RegisterDdlHook must be called
/// before the database is shared across threads.
class Database {
 public:
  Database()
      : num_shard_locks_(ConfiguredShardCount()),
        shard_mutexes_(new std::shared_mutex[num_shard_locks_]) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog* catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// \name Concurrency scopes (see the class contract).
  /// @{
  size_t num_shard_locks() const { return num_shard_locks_; }

  /// Reader bracket: structural shared + every shard shared. Hold it for
  /// the duration of any read that must not interleave with writes.
  class ReadScope {
   public:
    explicit ReadScope(const Database* db) : db_(db) {
      db_->structural_mutex_.lock_shared();
      for (size_t s = 0; s < db_->num_shard_locks_; ++s) {
        db_->shard_mutexes_[s].lock_shared();
      }
    }
    ~ReadScope() {
      for (size_t s = db_->num_shard_locks_; s > 0; --s) {
        db_->shard_mutexes_[s - 1].unlock_shared();
      }
      db_->structural_mutex_.unlock_shared();
    }
    ReadScope(const ReadScope&) = delete;
    ReadScope& operator=(const ReadScope&) = delete;

   private:
    const Database* db_;
  };

  /// Structural bracket: excludes every reader and every data writer
  /// (they all hold the structural lock shared). For catalog / access
  /// schema / declared-bound mutation and whole-table rebuilds.
  class StructuralScope {
   public:
    explicit StructuralScope(const Database* db) : db_(db) {
      db_->structural_mutex_.lock();
    }
    ~StructuralScope() { db_->structural_mutex_.unlock(); }
    StructuralScope(const StructuralScope&) = delete;
    StructuralScope& operator=(const StructuralScope&) = delete;

   private:
    const Database* db_;
  };

  /// One-shard reader bracket (plus structural shared): monitoring
  /// snapshots sample per-shard gauges one shard at a time with this,
  /// never holding two shard locks at once.
  class ShardReadScope {
   public:
    ShardReadScope(const Database* db, size_t shard)
        : db_(db), shard_(shard % db->num_shard_locks_) {
      db_->structural_mutex_.lock_shared();
      db_->shard_mutexes_[shard_].lock_shared();
    }
    ~ShardReadScope() {
      db_->shard_mutexes_[shard_].unlock_shared();
      db_->structural_mutex_.unlock_shared();
    }
    ShardReadScope(const ShardReadScope&) = delete;
    ShardReadScope& operator=(const ShardReadScope&) = delete;

   private:
    const Database* db_;
    size_t shard_;
  };
  /// @}

  /// Creates a table from (name, type) column declarations. Takes the
  /// structural lock exclusively (self-locking; do not hold a scope).
  Result<TableInfo*> CreateTable(const std::string& name,
                                 const Schema& schema);

  /// CreateTable for a caller that already holds a StructuralScope
  /// exclusively (recovery restore, scrub repair). Fires the same DDL
  /// hooks; the structural mutex is NOT recursive, so calling the
  /// self-locking variant from such a caller would deadlock.
  Result<TableInfo*> CreateTableLocked(const std::string& name,
                                       const Schema& schema);

  /// Inserts a row, running registered write hooks (index maintenance).
  /// Locks only the shard the row hashes to.
  Status Insert(const std::string& table, Row row);

  /// Inserts a batch of rows: rows are validated/coerced up front, the
  /// touched shards are locked once each (ascending), then rows are
  /// committed *in batch order* — so index bucket order, and therefore
  /// every downstream answer, is identical to row-at-a-time inserts and
  /// invariant across shard counts. Write hooks still run per row
  /// (AC-index maintenance is inherently per-tuple); the table's stats
  /// cache is invalidated once. On a validation error, rows preceding the
  /// bad one remain inserted (append semantics, no rollback); the error
  /// reports the failing row index.
  Status InsertBatch(const std::string& table, std::vector<Row> rows);

  /// Deletes the first live row (in insertion order) equal to `row`,
  /// column by column under Value equality with NULL matching NULL,
  /// running hooks. Returns NotFound if no such row exists (a string the
  /// table never held or the wrong arity included). Scans the whole
  /// table, so it locks every shard.
  Status DeleteWhereEquals(const std::string& table, const Row& row);

  /// The validation/routing half of Insert without the insert: coerces
  /// `row` in place against `table`'s schema and reports the shard it
  /// would land on. The durability layer runs this before logging so (a)
  /// doomed rows are rejected without burning WAL bytes and (b) the
  /// record routes to the WAL queue of the shard it will apply to. Takes
  /// only the structural lock shared (catalog read; no data touched).
  Status ValidateForInsert(const std::string& table, Row* row,
                           size_t* shard_out) const;

  /// Registers a hook invoked after every Insert/Delete on `table`
  /// (used by the AS Catalog maintenance module). `row` equals the row as
  /// stored: on insert it is the caller's row, whose strings the heap
  /// interned in place; on delete, the deleted row read back from the
  /// heap. Either way its strings are backed by the table's dictionary.
  /// See the thread-safety contract above: registration must precede
  /// concurrent use, and hooks must not re-enter the write path.
  using WriteHook = std::function<void(const std::string& table,
                                       const Row& row, bool is_insert)>;
  void RegisterWriteHook(WriteHook hook) { hooks_.push_back(std::move(hook)); }

  /// Registers a hook invoked after every successful CreateTable (used by
  /// the service layer to invalidate plan-cache entries on DDL).
  using DdlHook = std::function<void(const std::string& table)>;
  void RegisterDdlHook(DdlHook hook) { ddl_hooks_.push_back(std::move(hook)); }

  /// Parses + binds a SQL string (masks its literals, then binds the
  /// template).
  Result<BoundQuery> Bind(const std::string& sql) const;

  /// Parses + binds a masked template (MaskSqlLiterals' output, or its
  /// canonical form).
  Result<BoundQuery> Bind(const SqlTemplate& tmpl) const;

  /// Plans a bound query under a profile.
  Result<std::unique_ptr<PlanNode>> Plan(const BoundQuery& query,
                                         const EngineProfile& profile) const;

  /// Full pipeline: parse, bind, plan, execute.
  Result<QueryResult> Query(
      const std::string& sql,
      const EngineProfile& profile = EngineProfile::PostgresLike()) const;

  /// Executes an existing plan, labeling the result with `engine`.
  Result<QueryResult> ExecutePlan(const PlanNode& plan,
                                  const BoundQuery& query,
                                  const std::string& engine) const;

 private:
  /// RAII writer claim: catches a hook re-entering the write path of the
  /// database it was invoked from (the legal concurrency — two threads
  /// writing different shards — is arbitrated by the lock table instead).
  class WriteScope {
   public:
    explicit WriteScope(const Database* db);
    ~WriteScope();
    WriteScope(const WriteScope&) = delete;
    WriteScope& operator=(const WriteScope&) = delete;
    bool claimed() const { return claimed_; }

   private:
    const Database* db_;
    const Database* prev_ = nullptr;
    bool claimed_ = false;
  };

  std::shared_mutex& ShardMutex(size_t heap_shard) const {
    return shard_mutexes_[heap_shard % num_shard_locks_];
  }

  Catalog catalog_;
  std::vector<WriteHook> hooks_;
  std::vector<DdlHook> ddl_hooks_;

  size_t num_shard_locks_;
  mutable std::shared_mutex structural_mutex_;
  mutable std::unique_ptr<std::shared_mutex[]> shard_mutexes_;
};

}  // namespace beas

#endif  // BEAS_ENGINE_DATABASE_H_
