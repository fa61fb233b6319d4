#include "engine/database.h"

#include <algorithm>
#include <chrono>

#include "sql/parser.h"

namespace beas {

namespace {

Status ConcurrentWriteError(const char* op, const std::string& table) {
  return Status::Internal(
      std::string("concurrent write detected in ") + op + "('" + table +
      "'): write hooks must not re-enter the write path of the database "
      "that invoked them; writes from other threads are serialized by the "
      "per-shard lock table (e.g. through BeasService)");
}

/// The database this thread is currently inside a write of (hook
/// re-entrancy detection; nesting across *different* databases is legal).
thread_local const Database* t_current_writer = nullptr;

}  // namespace

Database::WriteScope::WriteScope(const Database* db) : db_(db) {
  claimed_ = t_current_writer != db;
  if (claimed_) {
    prev_ = t_current_writer;
    t_current_writer = db;
  }
}

Database::WriteScope::~WriteScope() {
  if (claimed_) t_current_writer = prev_;
}

Result<TableInfo*> Database::CreateTable(const std::string& name,
                                         const Schema& schema) {
  WriteScope scope(this);
  if (!scope.claimed()) return ConcurrentWriteError("CreateTable", name);
  StructuralScope lock(this);
  BEAS_ASSIGN_OR_RETURN(TableInfo * info, catalog_.CreateTable(name, schema));
  for (const DdlHook& hook : ddl_hooks_) hook(info->name());
  return info;
}

Result<TableInfo*> Database::CreateTableLocked(const std::string& name,
                                               const Schema& schema) {
  BEAS_ASSIGN_OR_RETURN(TableInfo * info, catalog_.CreateTable(name, schema));
  for (const DdlHook& hook : ddl_hooks_) hook(info->name());
  return info;
}

Status Database::Insert(const std::string& table, Row row) {
  WriteScope scope(this);
  if (!scope.claimed()) return ConcurrentWriteError("Insert", table);
  std::shared_lock<std::shared_mutex> structural(structural_mutex_);
  BEAS_ASSIGN_OR_RETURN(TableInfo * info, catalog_.GetTable(table));
  TableHeap* heap = info->heap();
  // Coerce before routing so the shard is computed on the stored
  // representation, then lock exactly that shard.
  BEAS_RETURN_NOT_OK(heap->ValidateAndCoerce(&row));
  size_t shard = heap->ShardOf(row);
  std::unique_lock<std::shared_mutex> lock(ShardMutex(shard));
  heap->InsertUnchecked(&row, shard);
  info->InvalidateStats();
  for (const WriteHook& hook : hooks_) hook(info->name(), row, true);
  return Status::OK();
}

Status Database::InsertBatch(const std::string& table, std::vector<Row> rows) {
  WriteScope scope(this);
  if (!scope.claimed()) return ConcurrentWriteError("InsertBatch", table);
  std::shared_lock<std::shared_mutex> structural(structural_mutex_);
  BEAS_ASSIGN_OR_RETURN(TableInfo * info, catalog_.GetTable(table));
  TableHeap* heap = info->heap();

  // Validate/coerce up front; on the first bad row, commit what precedes
  // it (append semantics, matching the row-at-a-time path) and report the
  // failing index.
  size_t commit_count = rows.size();
  Status bad = Status::OK();
  for (size_t r = 0; r < rows.size(); ++r) {
    Status st = heap->ValidateAndCoerce(&rows[r]);
    if (!st.ok()) {
      commit_count = r;
      bad = Status::InvalidArgument("InsertBatch('" + table + "') row " +
                                    std::to_string(r) + ": " + st.message());
      break;
    }
  }

  // Route rows, then lock each touched shard exactly once, ascending.
  // Shards are cached so commit places each row exactly where its lock
  // was routed, not re-derived.
  std::vector<size_t> shards(commit_count);
  std::vector<size_t> touched;
  touched.reserve(std::min(commit_count, num_shard_locks_));
  {
    std::vector<char> seen(num_shard_locks_, 0);
    for (size_t r = 0; r < commit_count; ++r) {
      shards[r] = heap->ShardOf(rows[r]);
      size_t lock_id = shards[r] % num_shard_locks_;
      if (!seen[lock_id]) {
        seen[lock_id] = 1;
        touched.push_back(lock_id);
      }
    }
  }
  std::sort(touched.begin(), touched.end());
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(touched.size());
  for (size_t lock_id : touched) {
    locks.emplace_back(shard_mutexes_[lock_id]);
  }

  // Commit in batch order — bucket order (and thus answers) must match a
  // row-at-a-time history regardless of how rows spread across shards.
  for (size_t r = 0; r < commit_count; ++r) {
    heap->InsertUnchecked(&rows[r], shards[r]);
    for (const WriteHook& hook : hooks_) hook(info->name(), rows[r], true);
  }
  info->InvalidateStats();
  return bad;
}

Status Database::DeleteWhereEquals(const std::string& table, const Row& row) {
  WriteScope scope(this);
  if (!scope.claimed()) return ConcurrentWriteError("DeleteWhereEquals", table);
  std::shared_lock<std::shared_mutex> structural(structural_mutex_);
  BEAS_ASSIGN_OR_RETURN(TableInfo * info, catalog_.GetTable(table));
  TableHeap* heap = info->heap();
  // Full-table scan: every shard, ascending.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(num_shard_locks_);
  for (size_t s = 0; s < num_shard_locks_; ++s) {
    locks.emplace_back(shard_mutexes_[s]);
  }
  // Deletion is by full-row identity, NULL matching NULL.
  SlotId slot = heap->FindEqual(row);
  if (slot != TableHeap::kNoSlot) {
    Row deleted = heap->RowAt(slot);
    BEAS_RETURN_NOT_OK(heap->Delete(slot));
    info->InvalidateStats();
    for (const WriteHook& hook : hooks_) hook(info->name(), deleted, false);
    return Status::OK();
  }
  return Status::NotFound("no matching row in '" + table + "'");
}

Status Database::ValidateForInsert(const std::string& table, Row* row,
                                   size_t* shard_out) const {
  std::shared_lock<std::shared_mutex> structural(structural_mutex_);
  BEAS_ASSIGN_OR_RETURN(TableInfo * info, catalog_.GetTable(table));
  BEAS_RETURN_NOT_OK(info->heap()->ValidateAndCoerce(row));
  if (shard_out != nullptr) *shard_out = info->heap()->ShardOf(*row);
  return Status::OK();
}

Result<BoundQuery> Database::Bind(const std::string& sql) const {
  BEAS_ASSIGN_OR_RETURN(SqlTemplate tmpl, MaskSqlLiterals(sql));
  return Bind(tmpl);
}

Result<BoundQuery> Database::Bind(const SqlTemplate& tmpl) const {
  BEAS_ASSIGN_OR_RETURN(SelectStatement stmt, Parser::Parse(tmpl));
  return Binder(&catalog_).Bind(stmt);
}

Result<std::unique_ptr<PlanNode>> Database::Plan(
    const BoundQuery& query, const EngineProfile& profile) const {
  Planner planner(profile);
  return planner.Plan(query);
}

Result<QueryResult> Database::ExecutePlan(const PlanNode& plan,
                                          const BoundQuery& query,
                                          const std::string& engine) const {
  ExecContext ctx;
  auto start = std::chrono::steady_clock::now();
  BEAS_ASSIGN_OR_RETURN(std::unique_ptr<Executor> executor,
                        BuildExecutor(plan, &ctx));
  QueryResult result;
  BEAS_ASSIGN_OR_RETURN(result.rows, DrainExecutor(executor.get()));
  auto end = std::chrono::steady_clock::now();

  result.millis = std::chrono::duration<double, std::milli>(end - start).count();
  result.tuples_accessed = ctx.base_tuples_read;
  result.stats = executor->CollectStats();
  result.plan_text = plan.ToString();
  result.engine = engine;
  for (const OutputItem& out : query.outputs) {
    result.column_names.push_back(out.name);
    result.column_types.push_back(out.type);
  }
  return result;
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    const EngineProfile& profile) const {
  BEAS_ASSIGN_OR_RETURN(BoundQuery query, Bind(sql));
  BEAS_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> plan, Plan(query, profile));
  return ExecutePlan(*plan, query, profile.name);
}

}  // namespace beas
