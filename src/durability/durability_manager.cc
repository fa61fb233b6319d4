#include "durability/durability_manager.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/crc32.h"
#include "common/string_util.h"
#include "durability/segment.h"

namespace beas {
namespace durability {

namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kCkMetaName = "CKMETA";

/// Transient-fault tolerance: a failed WAL group commit is repaired
/// (truncated back to the acked prefix) and re-attempted this many times
/// before the shard latches.
constexpr uint64_t kWalRetryLimit = 3;

/// Backoff before the first retry, doubling per attempt (capped at
/// 100 ms). Writers in the group wait through it: under a transient fault
/// a slow ack beats a spurious nack.
constexpr uint64_t kWalRetryBackoffMs = 1;

Status MetaLogFailedError() {
  return Status::Unavailable(
      "durability: a structural change could not be logged; the in-memory "
      "state is ahead of the WAL, refusing further durable writes");
}

Status WalLatchedError() {
  return Status::Unavailable(
      "durability: shard WAL latched after an unrepairable group-commit "
      "failure; refusing further durable writes on this shard");
}

/// Disk-full detection by message shape: the posix Env renders every IO
/// error through std::strerror, so ENOSPC always carries this text.
bool IsNoSpaceError(const Status& st) {
  return st.code() == StatusCode::kIoError &&
         st.message().find("No space left on device") != std::string::npos;
}

/// Parses "ck<digits>" into the checkpoint id; 0 when malformed.
uint64_t ParseCkDirName(const std::string& name) {
  if (name.size() < 3 || name.compare(0, 2, "ck") != 0) return 0;
  uint64_t id = 0;
  for (size_t i = 2; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    id = id * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return id;
}

}  // namespace

DurabilityManager::DurabilityManager(Database* db, AsCatalog* catalog,
                                     DurabilityOptions opts)
    : db_(db),
      catalog_(catalog),
      options_(std::move(opts)),
      env_(options_.env != nullptr ? options_.env : Env::Default()) {}

DurabilityManager::~DurabilityManager() {
  stop_.store(true, std::memory_order_release);
  for (auto& wal : shard_wals_) {
    { std::lock_guard<std::mutex> lk(wal->wake_mutex); }
    wal->wake.notify_all();
  }
  for (auto& wal : shard_wals_) {
    if (wal->drainer.joinable()) wal->drainer.join();
  }
  // The drainers flush their queues before exiting; anything still here
  // means a producer raced shutdown. Fail its ack rather than hang it.
  for (auto& wal : shard_wals_) {
    Pending* p = wal->head.exchange(nullptr, std::memory_order_acq_rel);
    while (p != nullptr) {
      Pending* next = p->next;
      p->ack.set_value(Status::Internal("durability manager shut down"));
      delete p;
      p = next;
    }
  }
}

std::string DurabilityManager::WalPath(size_t wal_shard) const {
  return options_.dir + "/wal/shard_" + std::to_string(wal_shard) + ".wal";
}

std::string DurabilityManager::MetaWalPath() const {
  return options_.dir + "/wal/meta.wal";
}

std::string DurabilityManager::SegDir(uint64_t checkpoint_id) const {
  return options_.dir + "/seg/ck" + std::to_string(checkpoint_id);
}

Status DurabilityManager::Open() {
  open_status_ = [&]() -> Status {
    if (options_.dir.empty()) {
      return Status::InvalidArgument("durability dir must be non-empty");
    }
    BEAS_RETURN_NOT_OK(Recover());

    wal_shard_count_ = db_->num_shard_locks();
    for (size_t k = 0; k < wal_shard_count_; ++k) {
      auto wal = std::make_unique<ShardWal>();
      BEAS_RETURN_NOT_OK(InitWalFile(env_, WalPath(k)));
      BEAS_ASSIGN_OR_RETURN(wal->file, env_->NewWritableFile(WalPath(k)));
      shard_wals_.push_back(std::move(wal));
    }
    BEAS_RETURN_NOT_OK(InitWalFile(env_, MetaWalPath()));
    BEAS_ASSIGN_OR_RETURN(meta_wal_, env_->NewWritableFile(MetaWalPath()));

    // Structural-op logging hooks. Registered after recovery, so replayed
    // operations were never at risk of being re-logged; from here on,
    // every DDL / constraint change that reaches the engine gets a meta
    // record.
    db_->RegisterDdlHook([this](const std::string& table) { OnDdl(table); });
    catalog_->AddChangeListener(
        [this](AsCatalog::ChangeKind kind, const std::string& /*table*/,
               const std::string& name) { OnCatalogChange(kind, name); });

    for (size_t k = 0; k < wal_shard_count_; ++k) {
      shard_wals_[k]->drainer = std::thread([this, k] { DrainerLoop(k); });
    }
    opened_ = true;
    return Status::OK();
  }();
  return open_status_;
}

// ---------------------------------------------------------------------------
// Durable write paths.
// ---------------------------------------------------------------------------

std::future<Status> DurabilityManager::Enqueue(size_t wal_shard,
                                               WalRecordType type,
                                               std::string payload) {
  ShardWal& wal = *shard_wals_[wal_shard];
  Pending* p = new Pending;
  p->record.type = type;
  p->record.payload = std::move(payload);
  std::future<Status> ack = p->ack.get_future();
  // A latched shard fast-fails here; a racing latch is caught by the
  // drainer, which nacks everything it pops from a latched shard.
  if (wal.io_failed.load(std::memory_order_acquire)) {
    p->ack.set_value(WalLatchedError());
    delete p;
    return ack;
  }
  wal.enqueued.fetch_add(1, std::memory_order_relaxed);
  Pending* head = wal.head.load(std::memory_order_relaxed);
  do {
    p->next = head;
  } while (!wal.head.compare_exchange_weak(head, p, std::memory_order_release,
                                           std::memory_order_relaxed));
  // Empty critical section: pairs the notify with the drainer's wait so a
  // wakeup between its predicate check and its sleep cannot be lost.
  { std::lock_guard<std::mutex> lk(wal.wake_mutex); }
  wal.wake.notify_one();
  return ack;
}

Status DurabilityManager::Insert(const std::string& table, Row row) {
  if (!open_status_.ok()) return open_status_;
  if (meta_log_failed_.load(std::memory_order_acquire)) {
    return MetaLogFailedError();
  }
  std::shared_lock<std::shared_mutex> gate(commit_mutex_);
  // Validate + coerce before logging: doomed rows are rejected without
  // burning WAL bytes, and the record routes to the queue of the shard it
  // will apply to (its drainer's apply blocks only on that shard's lock).
  size_t shard = 0;
  BEAS_RETURN_NOT_OK(db_->ValidateForInsert(table, &row, &shard));
  BEAS_RETURN_NOT_OK(CheckQuarantine(table, static_cast<int64_t>(shard)));
  ByteSink payload;
  payload.PutString(table);
  WriteRow(&payload, row);
  return Enqueue(shard % wal_shard_count_, WalRecordType::kInsert,
                 payload.Take())
      .get();
}

Status DurabilityManager::InsertBatch(const std::string& table,
                                      std::vector<Row> rows) {
  if (!open_status_.ok()) return open_status_;
  if (meta_log_failed_.load(std::memory_order_acquire)) {
    return MetaLogFailedError();
  }
  if (rows.empty()) return Status::OK();
  std::shared_lock<std::shared_mutex> gate(commit_mutex_);
  // A batch can land in any heap shard, so any quarantined shard of the
  // table refuses it.
  BEAS_RETURN_NOT_OK(CheckQuarantine(table, -1));
  // Route by the first row only; the batch is logged whole and applied
  // through Database::InsertBatch, whose validate-then-commit (including
  // the partial commit before a bad row) is deterministic — replay
  // reproduces exactly what the live apply did, error and all.
  size_t shard = 0;
  {
    Row probe = rows.front();
    if (!db_->ValidateForInsert(table, &probe, &shard).ok()) shard = 0;
  }
  ByteSink payload;
  payload.PutString(table);
  payload.PutU32(static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) WriteRow(&payload, row);
  return Enqueue(shard % wal_shard_count_, WalRecordType::kInsertBatch,
                 payload.Take())
      .get();
}

Status DurabilityManager::Delete(const std::string& table, const Row& row) {
  if (!open_status_.ok()) return open_status_;
  if (meta_log_failed_.load(std::memory_order_acquire)) {
    return MetaLogFailedError();
  }
  std::shared_lock<std::shared_mutex> gate(commit_mutex_);
  // A delete scans every shard of the table.
  BEAS_RETURN_NOT_OK(CheckQuarantine(table, -1));
  ByteSink payload;
  payload.PutString(table);
  WriteRow(&payload, row);
  // A delete scans every shard, so it has no natural home queue; spread
  // by content hash. Sequencing against the inserts it targets is by
  // LSN: a caller that deletes only after its insert acked enqueues
  // strictly later, so the delete is stamped (and replayed) later.
  size_t wal_shard =
      Crc32c(payload.str().data(), payload.size()) % wal_shard_count_;
  return Enqueue(wal_shard, WalRecordType::kDelete, payload.Take()).get();
}

Result<TableInfo*> DurabilityManager::CreateTable(const std::string& name,
                                                  const Schema& schema) {
  if (!open_status_.ok()) return open_status_;
  StructuralGate gate(this);
  // Apply-then-log: the DDL hook fires inside CreateTable (on success
  // only) and writes the meta record under this gate.
  Result<TableInfo*> info = db_->CreateTable(name, schema);
  if (info.ok() && meta_log_failed_.load(std::memory_order_acquire)) {
    return MetaLogFailedError();
  }
  return info;
}

Status DurabilityManager::CheckQuarantine(const std::string& table,
                                          int64_t shard) const {
  if (quarantined_count_.load(std::memory_order_acquire) == 0) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lk(quarantine_mutex_);
  const std::string key = ToLower(table);
  bool hit = false;
  if (shard >= 0) {
    hit = quarantined_.count({key, static_cast<size_t>(shard)}) != 0;
  } else {
    for (const auto& q : quarantined_) {
      if (q.first == key) {
        hit = true;
        break;
      }
    }
  }
  if (!hit) return Status::OK();
  return Status::Unavailable(
      "durability: table '" + table +
      "' has a shard quarantined by the scrubber pending repair; durable "
      "writes refused (reads still serve)");
}

// ---------------------------------------------------------------------------
// Commit gate.
// ---------------------------------------------------------------------------

void DurabilityManager::EnterStructural() {
  commit_mutex_.lock();
  Barrier();
}

void DurabilityManager::LeaveStructural() { commit_mutex_.unlock(); }

void DurabilityManager::Barrier() {
  // Data writers hold the gate shared from enqueue to ack, so by the time
  // the exclusive lock is ours the queues are normally already drained;
  // the wait below is the formal guarantee, not the common path.
  for (auto& wal : shard_wals_) {
    auto drained = [&] {
      return wal->applied.load(std::memory_order_acquire) >=
             wal->enqueued.load(std::memory_order_acquire);
    };
    if (drained()) continue;
    // The drainer bumps applied before taking wake_mutex to notify, so a
    // bump concurrent with this locked predicate check either is seen
    // here or its notify lands after the wait begins — never lost.
    std::unique_lock<std::mutex> lk(wal->wake_mutex);
    wal->wake.notify_one();
    wal->applied_cv.wait(lk, drained);
  }
}

// ---------------------------------------------------------------------------
// Group-commit drainer.
// ---------------------------------------------------------------------------

void DurabilityManager::DrainerLoop(size_t wal_shard) {
  ShardWal& wal = *shard_wals_[wal_shard];
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(wal.wake_mutex);
      wal.wake.wait_for(lk, std::chrono::milliseconds(50), [&] {
        return wal.head.load(std::memory_order_acquire) != nullptr ||
               stop_.load(std::memory_order_acquire);
      });
    }
    Pending* batch = wal.head.exchange(nullptr, std::memory_order_acq_rel);
    if (batch == nullptr) {
      if (stop_.load(std::memory_order_acquire)) return;
      continue;
    }
    // The stack pops newest-first; reverse to FIFO so apply order is
    // enqueue order.
    Pending* fifo = nullptr;
    while (batch != nullptr) {
      Pending* next = batch->next;
      batch->next = fifo;
      fifo = batch;
      batch = next;
    }
    // A latched shard nacks everything it pops: its file may end in bytes
    // the accounting cannot vouch for, and appending past them would let
    // recovery (which stops at the first invalid record) silently drop
    // the new records despite their acks.
    Status io = wal.io_failed.load(std::memory_order_acquire)
                    ? WalLatchedError()
                    : Status::OK();
    ByteSink group;
    if (io.ok()) {
      const uint64_t good_offset = wal.file->size();
      // Stamp LSNs at pop time: per-queue apply order equals LSN order by
      // construction, and an op enqueued after another op's ack is
      // stamped strictly later even across queues.
      uint64_t count = 0;
      for (Pending* p = fifo; p != nullptr; p = p->next) {
        p->record.lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
        EncodeWalRecord(&group, p->record);
        ++count;
      }
      // Commit with bounded retry: a transient append/fsync fault is
      // repaired (truncate back to the acked prefix, so nothing torn or
      // nacked can sit mid-file), backed off, and re-attempted — the
      // group's writers see a slow ack instead of a spurious nack. Only
      // when retries exhaust (a hard fault) or the repair itself fails
      // (the file can no longer be vouched for) does the shard latch.
      uint64_t attempt = 0;
      for (;;) {
        Status commit =
            wal.file->Append(group.str().data(), group.size());
        if (commit.ok()) {
          commit = wal.file->Sync();
          wal_fsyncs_total_.fetch_add(1, std::memory_order_relaxed);
        }
        if (commit.ok()) {
          wal_bytes_total_.fetch_add(group.size(), std::memory_order_relaxed);
          wal_records_total_.fetch_add(count, std::memory_order_relaxed);
          wal_group_commits_total_.fetch_add(1, std::memory_order_relaxed);
          wal_bytes_since_checkpoint_.fetch_add(group.size(),
                                                std::memory_order_relaxed);
          break;
        }
        // Repair before deciding anything. A partial append leaves a
        // torn record (possibly preceded by whole CRC-valid records of
        // this uncommitted group) past the acked prefix; a failed fsync
        // leaves the whole group CRC-valid in the page cache. Either way
        // the file must end at the last acked byte: cut it back and
        // persist the cut, so the bytes can neither shadow later acked
        // groups at recovery nor be replayed themselves.
        Status repair = wal.file->Truncate(good_offset);
        if (repair.ok()) repair = wal.file->Sync();
        if (!repair.ok()) {
          // The group's CRC-valid bytes may still be in the log, so a
          // restart may replay them: this group's outcome is unknown, and
          // saying "refused" would be a lie. Later pops are refused.
          wal.io_failed.store(true, std::memory_order_release);
          io = Status::IoError(
              "durability: WAL group commit failed and so did its repair (" +
              repair.message() + "); the write may or may not survive a "
              "restart; shard latched");
          break;
        }
        if (attempt >= kWalRetryLimit) {
          // Hard fault: the file is repaired (ends at the acked prefix)
          // but the device keeps refusing the group. Latch and surface a
          // typed refusal — "acked but unrecoverable" stays impossible.
          wal.io_failed.store(true, std::memory_order_release);
          io = Status::Unavailable(
              "durability: WAL group commit failed after " +
              std::to_string(attempt) + " retries, shard latched: " +
              commit.message());
          break;
        }
        ++attempt;
        wal_retries_total_.fetch_add(1, std::memory_order_relaxed);
        uint64_t backoff = kWalRetryBackoffMs << (attempt - 1);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min<uint64_t>(backoff, 100)));
      }
    }
    // Apply in FIFO order, then ack. On an IO failure nothing applies:
    // the group was cut back out of the log (or the shard latched) —
    // acking (or applying) would promise more than the log holds.
    for (Pending* p = fifo; p != nullptr;) {
      Pending* next = p->next;
      Status st = io.ok() ? ApplyRecord(p->record) : io;
      p->ack.set_value(std::move(st));
      wal.applied.fetch_add(1, std::memory_order_release);
      delete p;
      p = next;
    }
    // Pairs with Barrier(): applied is published above, the empty
    // critical section orders this notify after its locked check.
    { std::lock_guard<std::mutex> lk(wal.wake_mutex); }
    wal.applied_cv.notify_all();
  }
}

void DurabilityManager::MarkTableDirty(const std::string& table) {
  std::lock_guard<std::mutex> lk(dirty_mutex_);
  dirty_tables_.insert(ToLower(table));
}

void DurabilityManager::MarkStructuralDirty() {
  std::lock_guard<std::mutex> lk(dirty_mutex_);
  structural_dirty_ = true;
}

Status DurabilityManager::ApplyRecord(const WalRecord& record) {
  ByteReader r(record.payload.data(), record.payload.size());
  switch (record.type) {
    case WalRecordType::kInsert: {
      std::string table = r.GetString();
      BEAS_ASSIGN_OR_RETURN(Row row, ReadRow(&r));
      if (!r.ok()) return Status::IoError("bad insert record");
      MarkTableDirty(table);
      return db_->Insert(table, std::move(row));
    }
    case WalRecordType::kInsertBatch: {
      std::string table = r.GetString();
      uint32_t count = r.GetU32();
      if (!r.ok() || count > r.remaining()) {
        return Status::IoError("bad insert-batch record");
      }
      std::vector<Row> rows;
      rows.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        BEAS_ASSIGN_OR_RETURN(Row row, ReadRow(&r));
        rows.push_back(std::move(row));
      }
      MarkTableDirty(table);
      return db_->InsertBatch(table, std::move(rows));
    }
    case WalRecordType::kDelete: {
      std::string table = r.GetString();
      BEAS_ASSIGN_OR_RETURN(Row row, ReadRow(&r));
      if (!r.ok()) return Status::IoError("bad delete record");
      MarkTableDirty(table);
      return db_->DeleteWhereEquals(table, row);
    }
    // Structural records never flow through the shard queues; they are
    // applied here only during recovery replay (single-threaded).
    case WalRecordType::kCreateTable: {
      std::string name = r.GetString();
      BEAS_ASSIGN_OR_RETURN(Schema schema, ReadSchema(&r));
      MarkStructuralDirty();
      return db_->CreateTable(name, schema).status();
    }
    case WalRecordType::kRegisterConstraint: {
      BEAS_ASSIGN_OR_RETURN(AccessConstraint constraint, ReadConstraint(&r));
      MarkStructuralDirty();
      Database::StructuralScope lock(db_);
      return catalog_->Register(std::move(constraint));
    }
    case WalRecordType::kUnregisterConstraint: {
      std::string name = r.GetString();
      if (!r.ok()) return Status::IoError("bad unregister record");
      MarkStructuralDirty();
      Database::StructuralScope lock(db_);
      return catalog_->Unregister(name);
    }
    case WalRecordType::kAdjustLimit: {
      std::string name = r.GetString();
      uint64_t limit = r.GetU64();
      if (!r.ok()) return Status::IoError("bad adjust-limit record");
      MarkStructuralDirty();
      Database::StructuralScope lock(db_);
      return catalog_->AdjustLimit(name, limit);
    }
    // Written by earlier versions after a dictionary renumbering. Codes
    // no longer change, and nothing persisted or answered depends on code
    // order (rows, index cells and WAL records carry string bytes; every
    // hash is a byte hash), so the record has nothing to apply.
    case WalRecordType::kDictRebuild:
      return Status::OK();
  }
  return Status::IoError("unknown WAL record type");
}

// ---------------------------------------------------------------------------
// Structural-op logging (meta WAL).
// ---------------------------------------------------------------------------

Status DurabilityManager::LogMeta(WalRecordType type, std::string payload) {
  // Any structural change invalidates the checkpoint-time memory
  // baselines (conservatively: the next checkpoint re-arms the scrubber).
  MarkStructuralDirty();
  WalRecord record;
  record.lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
  record.type = type;
  record.payload = std::move(payload);
  ByteSink frame;
  EncodeWalRecord(&frame, record);
  std::lock_guard<std::mutex> lk(meta_mutex_);
  if (meta_wal_ == nullptr) {
    return Status::Unavailable("durability: meta WAL unavailable");
  }
  BEAS_RETURN_NOT_OK(meta_wal_->Append(frame.str().data(), frame.size()));
  BEAS_RETURN_NOT_OK(meta_wal_->Sync());
  wal_fsyncs_total_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_total_.fetch_add(frame.size(), std::memory_order_relaxed);
  wal_records_total_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_since_checkpoint_.fetch_add(frame.size(),
                                        std::memory_order_relaxed);
  return Status::OK();
}

void DurabilityManager::OnDdl(const std::string& table) {
  if (replaying_) return;
  Result<TableInfo*> info = db_->catalog()->GetTable(table);
  if (!info.ok()) return;
  ByteSink payload;
  payload.PutString((*info)->name());
  WriteSchema(&payload, (*info)->schema());
  if (!LogMeta(WalRecordType::kCreateTable, payload.Take()).ok()) {
    meta_log_failed_.store(true, std::memory_order_release);
  }
}

void DurabilityManager::OnCatalogChange(AsCatalog::ChangeKind kind,
                                        const std::string& name) {
  if (replaying_) return;
  Status logged = Status::OK();
  switch (kind) {
    case AsCatalog::ChangeKind::kConstraintRegistered: {
      Result<const AccessConstraint*> c = catalog_->schema().Find(name);
      if (!c.ok()) return;
      ByteSink payload;
      WriteConstraint(&payload, **c);
      logged = LogMeta(WalRecordType::kRegisterConstraint, payload.Take());
      break;
    }
    case AsCatalog::ChangeKind::kConstraintUnregistered: {
      ByteSink payload;
      payload.PutString(name);
      logged = LogMeta(WalRecordType::kUnregisterConstraint, payload.Take());
      break;
    }
    case AsCatalog::ChangeKind::kLimitAdjusted: {
      Result<const AccessConstraint*> c = catalog_->schema().Find(name);
      if (!c.ok()) return;
      ByteSink payload;
      payload.PutString(name);
      payload.PutU64((*c)->limit_n);
      logged = LogMeta(WalRecordType::kAdjustLimit, payload.Take());
      break;
    }
  }
  if (!logged.ok()) meta_log_failed_.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Checkpoints.
// ---------------------------------------------------------------------------

Status DurabilityManager::Checkpoint() {
  if (!open_status_.ok()) return open_status_;
  StructuralGate gate(this);
  Database::StructuralScope lock(db_);
  return CheckpointLocked();
}

Status DurabilityManager::MaybeCheckpointLocked(bool* did_out) {
  if (did_out != nullptr) *did_out = false;
  if (!opened_) return Status::OK();
  if (wal_bytes_since_checkpoint_.load(std::memory_order_relaxed) <
      options_.checkpoint_min_wal_bytes) {
    return Status::OK();
  }
  if (did_out != nullptr) *did_out = true;
  return CheckpointLocked();
}

Status DurabilityManager::WriteCheckpointSegments(
    const std::string& seg_dir, ByteSink* manifest,
    std::vector<SegmentRecord>* segments,
    std::map<std::string, TableBaseline>* tables_out,
    std::map<std::string, uint32_t>* indexes_out) {
  auto write_segment = [&](SegmentRecord rec, std::string payload,
                           uint32_t* crc_out) -> Status {
    uint32_t crc = 0;
    BEAS_RETURN_NOT_OK(
        WriteSegmentFile(env_, rec.path, rec.kind, payload, &crc));
    rec.crc = crc;
    if (crc_out != nullptr) *crc_out = crc;
    segments->push_back(std::move(rec));
    return Status::OK();
  };

  const std::vector<std::string> tables = db_->catalog()->TableNames();
  manifest->PutU32(static_cast<uint32_t>(tables.size()));
  for (const std::string& name : tables) {
    BEAS_ASSIGN_OR_RETURN(TableInfo * info, db_->catalog()->GetTable(name));
    manifest->PutString(info->name());
    const std::string base = seg_dir + "/t_" + info->name();
    SegmentRecord meta_rec;
    meta_rec.path = base + ".meta.seg";
    meta_rec.kind = SegmentKind::kTableMeta;
    meta_rec.table = info->name();
    BEAS_RETURN_NOT_OK(write_segment(std::move(meta_rec),
                                     BuildTableMetaPayload(*info), nullptr));
    const TableHeap& heap = *info->heap();
    TableBaseline baseline;
    if (heap.dict() != nullptr) {
      SegmentRecord rec;
      rec.path = base + ".dict.seg";
      rec.kind = SegmentKind::kDict;
      rec.table = info->name();
      baseline.has_dict = true;
      BEAS_RETURN_NOT_OK(write_segment(
          std::move(rec), BuildDictPayload(*heap.dict()), &baseline.dict_crc));
    }
    baseline.shard_crcs.resize(heap.num_shards(), 0);
    for (size_t s = 0; s < heap.num_shards(); ++s) {
      SegmentRecord rec;
      rec.path = base + ".s" + std::to_string(s) + ".seg";
      rec.kind = SegmentKind::kShardRows;
      rec.table = info->name();
      rec.shard = s;
      BEAS_RETURN_NOT_OK(write_segment(std::move(rec),
                                       BuildShardRowsPayload(heap, s),
                                       &baseline.shard_crcs[s]));
    }
    (*tables_out)[info->name()] = std::move(baseline);
  }

  // Constraints in registration order: restore re-adopts them in the same
  // order, so auto-naming and index slots line up with the live catalog.
  const std::vector<AccessConstraint>& constraints =
      catalog_->schema().constraints();
  manifest->PutU32(static_cast<uint32_t>(constraints.size()));
  for (const AccessConstraint& c : constraints) {
    manifest->PutString(c.name);
    const AcIndex* index = catalog_->IndexFor(c.name);
    if (index == nullptr) {
      return Status::Internal("no index for constraint '" + c.name + "'");
    }
    SegmentRecord rec;
    rec.path = seg_dir + "/c_" + c.name + ".idx.seg";
    rec.kind = SegmentKind::kIndex;
    rec.constraint = c.name;
    BEAS_RETURN_NOT_OK(write_segment(std::move(rec), BuildIndexPayload(*index),
                                     &(*indexes_out)[c.name]));
  }

  // CKMETA: a copy of the manifest payload inside the directory itself,
  // making ck<N> self-describing — recovery can fall back to it when a
  // newer checkpoint's segments fail verification.
  {
    SegmentRecord rec;
    rec.path = seg_dir + "/" + kCkMetaName;
    rec.kind = SegmentKind::kManifest;
    BEAS_RETURN_NOT_OK(write_segment(std::move(rec), manifest->str(), nullptr));
  }

  BEAS_RETURN_NOT_OK(env_->SyncDir(seg_dir));
  // ck<N>'s own entry in seg/ must be durable before the manifest can
  // point at it, or a crash leaves a manifest referencing a directory
  // that no longer exists.
  return env_->SyncDir(options_.dir + "/seg");
}

Status DurabilityManager::RotateWals() {
  auto rotate = [&]() -> Status {
    // Close the live handles first: a posix fd follows its file through
    // the rename, so appends would land in the archived epoch.
    for (auto& wal : shard_wals_) wal->file.reset();
    {
      std::lock_guard<std::mutex> lk(meta_mutex_);
      meta_wal_.reset();
    }
    // wal/prev currently holds the epoch before last — every record in it
    // is covered by both retained checkpoints, so it can go.
    env_->RemoveAll(WalPrevDir());
    BEAS_RETURN_NOT_OK(env_->CreateDir(WalPrevDir()));
    BEAS_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                          env_->ListDir(WalDir()));
    for (const std::string& entry : entries) {
      if (entry == "prev") continue;
      BEAS_RETURN_NOT_OK(
          env_->RenameFile(WalDir() + "/" + entry, WalPrevDir() + "/" + entry));
    }
    BEAS_RETURN_NOT_OK(env_->SyncDir(WalDir()));
    BEAS_RETURN_NOT_OK(env_->SyncDir(WalPrevDir()));
    // Fresh epoch.
    for (size_t k = 0; k < wal_shard_count_; ++k) {
      BEAS_RETURN_NOT_OK(InitWalFile(env_, WalPath(k)));
      BEAS_ASSIGN_OR_RETURN(shard_wals_[k]->file,
                            env_->NewWritableFile(WalPath(k)));
    }
    BEAS_RETURN_NOT_OK(InitWalFile(env_, MetaWalPath()));
    std::lock_guard<std::mutex> lk(meta_mutex_);
    BEAS_ASSIGN_OR_RETURN(meta_wal_, env_->NewWritableFile(MetaWalPath()));
    return Status::OK();
  };
  Status st = rotate();
  if (st.ok()) return st;
  // A handle that could not be reopened must not dangle null under the
  // drainers: reopen best-effort, latch what stays closed.
  for (size_t k = 0; k < shard_wals_.size(); ++k) {
    if (shard_wals_[k]->file != nullptr) continue;
    Status reopen = InitWalFile(env_, WalPath(k));
    if (reopen.ok()) {
      Result<std::unique_ptr<WritableFile>> f =
          env_->NewWritableFile(WalPath(k));
      if (f.ok()) shard_wals_[k]->file = std::move(*f);
    }
    if (shard_wals_[k]->file == nullptr) {
      shard_wals_[k]->io_failed.store(true, std::memory_order_release);
    }
  }
  {
    std::lock_guard<std::mutex> lk(meta_mutex_);
    if (meta_wal_ == nullptr) {
      Status reopen = InitWalFile(env_, MetaWalPath());
      if (reopen.ok()) {
        Result<std::unique_ptr<WritableFile>> f =
            env_->NewWritableFile(MetaWalPath());
        if (f.ok()) meta_wal_ = std::move(*f);
      }
      if (meta_wal_ == nullptr) {
        meta_log_failed_.store(true, std::memory_order_release);
      }
    }
  }
  return st;
}

void DurabilityManager::GcCheckpointDirs(uint64_t keep_id) {
  Result<std::vector<std::string>> entries = env_->ListDir(options_.dir +
                                                           "/seg");
  if (!entries.ok()) return;
  for (const std::string& entry : *entries) {
    uint64_t id = ParseCkDirName(entry);
    // Two generations stay: the live checkpoint and its fallback.
    bool keep = keep_id != 0 &&
                (id == keep_id || (keep_id > 1 && id == keep_id - 1));
    if (!keep) env_->RemoveAll(options_.dir + "/seg/" + entry);
  }
}

Status DurabilityManager::CheckpointLocked() {
  uint64_t id = last_checkpoint_id_ + 1;
  std::string seg_dir = SegDir(id);
  env_->RemoveAll(seg_dir);  // a crash mid-checkpoint may have left a stale try
  BEAS_RETURN_NOT_OK(env_->CreateDir(seg_dir));

  ByteSink manifest;
  manifest.PutU64(id);
  // Every record stamped so far is applied (the gate's barrier ran), so
  // the segments capture exactly the history below this LSN; replay
  // resumes here.
  manifest.PutU64(next_lsn_.load(std::memory_order_relaxed));

  std::vector<SegmentRecord> segments;
  std::map<std::string, TableBaseline> table_baselines;
  std::map<std::string, uint32_t> index_baselines;
  Status wrote = WriteCheckpointSegments(seg_dir, &manifest, &segments,
                                         &table_baselines, &index_baselines);

  // Verify-then-commit: read every written segment back through the Env
  // and check its CRC against the write-time value. A bad read-back means
  // this checkpoint must never be pointed at — the previous one (plus the
  // retained WALs) is still fully intact.
  if (wrote.ok()) {
    Status verified = Status::OK();
    for (const SegmentRecord& rec : segments) {
      uint32_t crc = 0;
      Result<SegmentKind> kind = VerifySegmentFile(env_, rec.path, &crc);
      if (!kind.ok()) {
        verified = kind.status();
        break;
      }
      if (*kind != rec.kind || crc != rec.crc) {
        verified =
            Status::Corruption("checkpoint read-back mismatch: " + rec.path);
        break;
      }
    }
    wrote = std::move(verified);
  }

  if (!wrote.ok()) {
    // Pressure relief: nothing is committed (recovery still reads the
    // previous checkpoint + WAL tail), so the half-written try is pure
    // debt — drop it, and sweep any orphaned older tries while at it
    // (keeping the live checkpoint and its fallback). On a full disk that
    // frees space instead of compounding the stall, and the caller gets
    // the typed capacity verdict.
    env_->RemoveAll(seg_dir);
    GcCheckpointDirs(last_checkpoint_id_);
    if (IsNoSpaceError(wrote)) {
      return Status::ResourceExhausted(
          "checkpoint aborted, segment space reclaimed: " + wrote.message());
    }
    return wrote;
  }

  // Commit point: the manifest (segment-framed, atomically renamed in)
  // flips recovery from the old checkpoint + long WAL to the new one.
  {
    const std::string payload = manifest.Take();
    ByteSink file;
    file.PutU32(kSegMagic);
    file.PutU32(kSegVersion);
    file.PutU8(static_cast<uint8_t>(SegmentKind::kManifest));
    file.PutU32(Crc32c(payload.data(), payload.size()));
    file.PutU64(payload.size());
    file.PutRaw(payload.data(), payload.size());
    BEAS_RETURN_NOT_OK(
        env_->WriteFileAtomic(options_.dir + "/" + kManifestName, file.str()));
  }

  // Rotate the WALs instead of truncating: the outgoing epoch (records
  // since ck<N-1>) moves to wal/prev so a later recovery can still fall
  // back to ck<N-1> and replay it if ck<N>'s segments rot. This also
  // sweeps WAL files of a previous, larger BEAS_SHARDS configuration —
  // their records are covered by this checkpoint too.
  Status rotated = RotateWals();

  // The manifest is committed: bookkeeping must move to the new id even
  // when rotation fails, or the next checkpoint would RemoveAll() the
  // directory the manifest points at.
  last_checkpoint_id_ = id;
  wal_bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
  checkpoints_total_.fetch_add(1, std::memory_order_relaxed);
  current_segments_ = std::move(segments);
  table_baselines_ = std::move(table_baselines);
  index_baselines_ = std::move(index_baselines);
  {
    // The scrubber's memory baselines are valid from this instant.
    std::lock_guard<std::mutex> lk(dirty_mutex_);
    dirty_tables_.clear();
    structural_dirty_ = false;
  }
  BEAS_RETURN_NOT_OK(rotated);  // old dirs GC'd by the next ckpt/recovery
  GcCheckpointDirs(id);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

Status DurabilityManager::RestoreTable(const std::string& seg_dir,
                                       const std::string& table) {
  const std::string base = seg_dir + "/t_" + table;
  BEAS_ASSIGN_OR_RETURN(
      SegmentView meta_view,
      OpenSegment(env_, base + ".meta.seg", SegmentKind::kTableMeta));
  BEAS_ASSIGN_OR_RETURN(
      TableMetaRestore meta,
      ParseTableMetaPayload(meta_view.reader(), meta_view.version));
  // Callers (Recover's restore section, scrub repair) hold the structural
  // lock exclusively; the self-locking CreateTable would deadlock here.
  BEAS_ASSIGN_OR_RETURN(TableInfo * info,
                        db_->CreateTableLocked(table, meta.schema));
  TableHeap* heap = info->heap();
  if (meta.has_dict) {
    BEAS_ASSIGN_OR_RETURN(
        SegmentView dict_view,
        OpenSegment(env_, base + ".dict.seg", SegmentKind::kDict));
    BEAS_ASSIGN_OR_RETURN(
        std::vector<std::string> strings,
        ParseDictPayload(dict_view.reader(), dict_view.version));
    BEAS_RETURN_NOT_OK(heap->RestoreDict(std::move(strings)));
  }
  // The segments store string bytes; each row is packed as it is parsed,
  // its strings resolved to codes of the dictionary restored above (which
  // holds every string these rows ever interned).
  std::vector<TableHeap::ShardContent> shards(meta.num_shards);
  for (uint32_t s = 0; s < meta.num_shards; ++s) {
    BEAS_ASSIGN_OR_RETURN(
        SegmentView view,
        OpenSegment(env_, base + ".s" + std::to_string(s) + ".seg",
                    SegmentKind::kShardRows));
    BEAS_ASSIGN_OR_RETURN(shards[s],
                          ParseShardRowsPayload(view.reader(), *heap));
  }
  return heap->RestoreContent(std::move(shards), meta.directory,
                              meta.shard_key_col);
}

Status DurabilityManager::RestoreIndex(const std::string& seg_dir,
                                       const std::string& name) {
  BEAS_ASSIGN_OR_RETURN(
      SegmentView view,
      OpenSegment(env_, seg_dir + "/c_" + name + ".idx.seg",
                  SegmentKind::kIndex));
  BEAS_ASSIGN_OR_RETURN(IndexRestore restore, ParseIndexPayload(view.reader()));
  BEAS_ASSIGN_OR_RETURN(TableInfo * info,
                        db_->catalog()->GetTable(restore.constraint.table));
  AccessConstraint constraint = restore.constraint;
  // Restore encodes the segment's inline strings as codes of the restored
  // heap's dictionary.
  BEAS_ASSIGN_OR_RETURN(
      std::unique_ptr<AcIndex> index,
      AcIndex::Restore(std::move(restore.constraint), *info->heap(),
                       std::move(restore.buckets)));
  // The heap predates this constraint's shard-key declaration or not — we
  // cannot tell from here, but it does not matter: RestoreContent already
  // reinstated the recorded shard_key_col, and placement is historical.
  return catalog_->AdoptRestored(std::move(constraint), std::move(index));
}

Result<DurabilityManager::CheckpointMeta> DurabilityManager::LoadCheckpointMeta(
    const std::string& path) {
  BEAS_ASSIGN_OR_RETURN(SegmentView view,
                        OpenSegment(env_, path, SegmentKind::kManifest));
  ByteReader r = view.reader();
  CheckpointMeta meta;
  meta.id = r.GetU64();
  meta.replay_from = r.GetU64();
  uint32_t num_tables = r.GetU32();
  if (!r.ok() || num_tables > r.remaining()) {
    return Status::Corruption("truncated manifest: " + path);
  }
  meta.tables.reserve(num_tables);
  for (uint32_t i = 0; i < num_tables; ++i) meta.tables.push_back(r.GetString());
  uint32_t num_constraints = r.GetU32();
  if (!r.ok() || num_constraints > r.remaining()) {
    return Status::Corruption("truncated manifest: " + path);
  }
  meta.constraints.reserve(num_constraints);
  for (uint32_t i = 0; i < num_constraints; ++i) {
    meta.constraints.push_back(r.GetString());
  }
  if (!r.ok()) return Status::Corruption("truncated manifest: " + path);
  return meta;
}

Status DurabilityManager::VerifyCheckpoint(
    const std::string& seg_dir, const CheckpointMeta& meta,
    std::vector<SegmentRecord>* segments,
    std::map<std::string, TableBaseline>* tables_out,
    std::map<std::string, uint32_t>* indexes_out) {
  auto note = [&](std::string path, SegmentKind kind, uint32_t crc,
                  std::string table, size_t shard, std::string constraint) {
    if (segments == nullptr) return;
    SegmentRecord rec;
    rec.path = std::move(path);
    rec.kind = kind;
    rec.crc = crc;
    rec.table = std::move(table);
    rec.shard = shard;
    rec.constraint = std::move(constraint);
    segments->push_back(std::move(rec));
  };
  auto check = [&](const std::string& path, SegmentKind want,
                   uint32_t* crc_out) -> Status {
    BEAS_ASSIGN_OR_RETURN(SegmentKind kind,
                          VerifySegmentFile(env_, path, crc_out));
    if (kind != want) {
      return Status::Corruption("segment kind mismatch: " + path);
    }
    return Status::OK();
  };
  for (const std::string& table : meta.tables) {
    const std::string base = seg_dir + "/t_" + table;
    // The table meta segment is parsed (not just CRC'd): the shard count
    // and schema decide which further files the checkpoint must hold.
    BEAS_ASSIGN_OR_RETURN(
        SegmentView view,
        OpenSegment(env_, base + ".meta.seg", SegmentKind::kTableMeta));
    note(base + ".meta.seg", SegmentKind::kTableMeta, view.crc, table, 0, "");
    BEAS_ASSIGN_OR_RETURN(TableMetaRestore tm,
                          ParseTableMetaPayload(view.reader(), view.version));
    TableBaseline baseline;
    if (tm.has_dict) {
      // The disk pass re-checks the file's CRC; the memory pass compares
      // BuildDictPayload against the payload in the current layout, which
      // differs from the file for a version 1 dictionary.
      BEAS_ASSIGN_OR_RETURN(
          SegmentView dict,
          OpenSegment(env_, base + ".dict.seg", SegmentKind::kDict));
      BEAS_ASSIGN_OR_RETURN(baseline.dict_crc, DictBaselineCrc(dict));
      baseline.has_dict = true;
      note(base + ".dict.seg", SegmentKind::kDict, dict.crc, table, 0, "");
    }
    baseline.shard_crcs.resize(tm.num_shards, 0);
    for (uint32_t s = 0; s < tm.num_shards; ++s) {
      const std::string path = base + ".s" + std::to_string(s) + ".seg";
      BEAS_RETURN_NOT_OK(
          check(path, SegmentKind::kShardRows, &baseline.shard_crcs[s]));
      note(path, SegmentKind::kShardRows, baseline.shard_crcs[s], table, s,
           "");
    }
    if (tables_out != nullptr) (*tables_out)[table] = std::move(baseline);
  }
  for (const std::string& name : meta.constraints) {
    const std::string path = seg_dir + "/c_" + name + ".idx.seg";
    uint32_t crc = 0;
    BEAS_RETURN_NOT_OK(check(path, SegmentKind::kIndex, &crc));
    if (indexes_out != nullptr) (*indexes_out)[name] = crc;
    note(path, SegmentKind::kIndex, crc, "", 0, name);
  }
  const std::string ckmeta = seg_dir + "/" + kCkMetaName;
  if (env_->FileExists(ckmeta)) {
    uint32_t crc = 0;
    BEAS_RETURN_NOT_OK(check(ckmeta, SegmentKind::kManifest, &crc));
    note(ckmeta, SegmentKind::kManifest, crc, "", 0, "");
  }
  return Status::OK();
}

Status DurabilityManager::Recover() {
  BEAS_RETURN_NOT_OK(env_->CreateDir(options_.dir));
  BEAS_RETURN_NOT_OK(env_->CreateDir(WalDir()));
  BEAS_RETURN_NOT_OK(env_->CreateDir(options_.dir + "/seg"));
  // Persist the directory entries themselves: the manifest rename fsyncs
  // options_.dir later, but nothing else would cover the creation of the
  // data dir or of wal/ and seg/ inside it — a machine crash could
  // otherwise forget whole directories of acked state.
  BEAS_RETURN_NOT_OK(env_->SyncParentDir(options_.dir));
  BEAS_RETURN_NOT_OK(env_->SyncDir(options_.dir));
  replaying_ = true;

  // Candidate checkpoints, best first: the manifest's, then every
  // self-describing ck directory (CKMETA present) in descending id order.
  // A candidate counts only if every segment it references passes its CRC
  // check — verification runs BEFORE any restore touches the database, so
  // falling past a rotten newest checkpoint is safe.
  std::vector<std::string> candidates;
  const std::string manifest_path = options_.dir + "/" + kManifestName;
  const bool manifest_present = env_->FileExists(manifest_path);
  if (manifest_present) candidates.push_back(manifest_path);
  {
    std::vector<uint64_t> ck_ids;
    if (Result<std::vector<std::string>> entries =
            env_->ListDir(options_.dir + "/seg");
        entries.ok()) {
      for (const std::string& entry : *entries) {
        uint64_t id = ParseCkDirName(entry);
        if (id != 0) ck_ids.push_back(id);
      }
    }
    std::sort(ck_ids.rbegin(), ck_ids.rend());
    for (uint64_t id : ck_ids) {
      const std::string ckmeta = SegDir(id) + "/" + kCkMetaName;
      if (env_->FileExists(ckmeta)) candidates.push_back(ckmeta);
    }
  }

  bool restored = false;
  CheckpointMeta chosen;
  Status first_fail = Status::OK();
  for (const std::string& path : candidates) {
    Result<CheckpointMeta> meta = LoadCheckpointMeta(path);
    if (!meta.ok()) {
      if (first_fail.ok()) first_fail = meta.status();
      continue;
    }
    std::vector<SegmentRecord> segments;
    std::map<std::string, TableBaseline> table_baselines;
    std::map<std::string, uint32_t> index_baselines;
    Status verified = VerifyCheckpoint(SegDir(meta->id), *meta, &segments,
                                       &table_baselines, &index_baselines);
    if (!verified.ok()) {
      if (first_fail.ok()) first_fail = verified;
      continue;
    }
    // Verified: commit to this candidate. A restore failure past this
    // point is a real error (the database is partially populated), not a
    // fallback trigger. RestoreTable/RestoreIndex expect the structural
    // lock held exclusively (shared invariant with the scrub repair
    // path); nothing else runs at Open time, but the scope keeps the
    // contract uniform.
    Database::StructuralScope restore_lock(db_);
    for (const std::string& table : meta->tables) {
      Status st = RestoreTable(SegDir(meta->id), table);
      if (!st.ok()) {
        replaying_ = false;
        return st;
      }
    }
    for (const std::string& name : meta->constraints) {
      Status st = RestoreIndex(SegDir(meta->id), name);
      if (!st.ok()) {
        replaying_ = false;
        return st;
      }
    }
    chosen = std::move(*meta);
    current_segments_ = std::move(segments);
    table_baselines_ = std::move(table_baselines);
    index_baselines_ = std::move(index_baselines);
    restored = true;
    break;
  }
  // Fatal only when a checkpoint provably *committed* (a MANIFEST exists)
  // and nothing recovers it: acked state may have rotated out of wal/ by
  // then, so restoring empty would silently lose it. Without a MANIFEST
  // no checkpoint ever committed (the commit rename is durable before
  // Checkpoint returns) — stray half-written ck dirs from a crash mid
  // first checkpoint are just reclaimed, and the full WAL replays.
  if (!restored && manifest_present) {
    replaying_ = false;
    return Status::Corruption(
        "no recoverable checkpoint: every candidate failed verification; "
        "first failure: " + first_fail.message());
  }

  uint64_t replay_from = 0;  // first LSN not captured by the checkpoint
  if (restored) {
    last_checkpoint_id_ = chosen.id;
    replay_from = chosen.replay_from;
  }

  // GC checkpoint directories beyond the retained pair (crash between
  // manifest commit and old-dir removal, abandoned tries, or a fallback
  // that obsoleted a corrupt newer directory).
  GcCheckpointDirs(last_checkpoint_id_);

  // Merge every WAL — the live epoch in wal/ plus the retained previous
  // epoch in wal/prev (all shard files present: the shard count may have
  // changed across restarts — plus the meta WALs), keep the tail past the
  // chosen checkpoint, and replay globally in LSN order.
  std::vector<WalRecord> tail;
  uint64_t max_lsn = replay_from > 0 ? replay_from - 1 : 0;
  for (const std::string& dir : {WalDir(), WalPrevDir()}) {
    Result<std::vector<std::string>> entries = env_->ListDir(dir);
    if (!entries.ok()) continue;  // wal/prev may not exist yet
    for (const std::string& entry : *entries) {
      const std::string path = dir + "/" + entry;
      if (env_->IsDirectory(path)) continue;  // skips prev/ under wal/
      Result<WalReadResult> read = ReadWalFile(env_, path);
      if (!read.ok()) {
        // Garbage magic can be a crash image's torn, never-synced header
        // (a power cut inside InitWalFile's 8-byte append): an acked
        // record in this file would imply an fsync that also made the
        // header durable, so an invalid magic proves nothing acked ever
        // lived here — reset the file to empty, like the short-header
        // case inside ReadWalFile. A readable BWAL magic with a foreign
        // version is real foreign data and stays fatal.
        bool bwal_magic = false;
        if (Result<std::unique_ptr<RandomAccessFile>> view =
                env_->NewRandomAccessFile(path);
            view.ok() && (*view)->size() >= 4) {
          ByteReader r((*view)->data(), 4);
          bwal_magic = r.GetU32() == kWalMagic;
        }
        if (bwal_magic) {
          replaying_ = false;
          return read.status();
        }
        if (Result<std::unique_ptr<WritableFile>> repair =
                env_->NewWritableFile(path);
            repair.ok()) {
          (void)(*repair)->Truncate(0);
          (void)(*repair)->Sync();
        }
        continue;
      }
      for (WalRecord& record : read->records) {
        max_lsn = std::max(max_lsn, record.lsn);
        if (record.lsn >= replay_from) tail.push_back(std::move(record));
      }
      // Torn-tail repair: drop the invalid suffix a kill mid-append left,
      // so post-recovery appends extend a clean prefix.
      if (Result<std::unique_ptr<WritableFile>> repair =
              env_->NewWritableFile(path);
          repair.ok()) {
        uint64_t keep = std::max(read->valid_bytes, kWalHeaderBytes);
        if ((*repair)->size() < kWalHeaderBytes) {
          (void)(*repair)->Truncate(0);  // InitWalFile re-headers it
        } else if ((*repair)->size() > keep) {
          (void)(*repair)->Truncate(keep);
          (void)(*repair)->Sync();
        }
      }
    }
  }
  std::sort(tail.begin(), tail.end(),
            [](const WalRecord& a, const WalRecord& b) { return a.lsn < b.lsn; });
  for (const WalRecord& record : tail) {
    // Apply statuses are deliberately ignored: a record whose live apply
    // failed (e.g. the partial-commit error of a batch with a bad row)
    // fails identically here — that IS the faithful replay.
    (void)ApplyRecord(record);
    recovery_replayed_records_.fetch_add(1, std::memory_order_relaxed);
  }
  next_lsn_.store(max_lsn + 1, std::memory_order_relaxed);
  replaying_ = false;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scrub and repair.
// ---------------------------------------------------------------------------

Status DurabilityManager::ReloadTableFromCheckpoint(const std::string& table) {
  const std::string seg_dir = SegDir(last_checkpoint_id_);
  // The table's constraints, in registration order, so RestoreIndex
  // re-adopts them deterministically.
  std::vector<std::string> names;
  for (const AccessConstraint& c : catalog_->schema().constraints()) {
    if (EqualsIgnoreCase(c.table, table)) names.push_back(c.name);
  }
  replaying_ = true;  // suppress the logging hooks: this is a reload, not
                      // new history
  auto finish = [&](Status st) {
    replaying_ = false;
    return st;
  };
  for (const std::string& name : names) {
    BEAS_RETURN_NOT_OK(finish(catalog_->Unregister(name)));
    replaying_ = true;
  }
  BEAS_RETURN_NOT_OK(finish(db_->catalog()->DropTable(table)));
  replaying_ = true;
  BEAS_RETURN_NOT_OK(finish(RestoreTable(seg_dir, table)));
  replaying_ = true;
  for (const std::string& name : names) {
    BEAS_RETURN_NOT_OK(finish(RestoreIndex(seg_dir, name)));
    replaying_ = true;
  }
  replaying_ = false;

  // Confirm the reload actually matches the checkpoint fingerprints.
  auto it = table_baselines_.find(table);
  if (it != table_baselines_.end()) {
    BEAS_ASSIGN_OR_RETURN(TableInfo * info, db_->catalog()->GetTable(table));
    const TableHeap& heap = *info->heap();
    if (heap.num_shards() != it->second.shard_crcs.size()) {
      return Status::Corruption("scrub repair: shard count mismatch after "
                                "reloading '" + table + "'");
    }
    for (size_t s = 0; s < heap.num_shards(); ++s) {
      std::string payload = BuildShardRowsPayload(heap, s);
      if (Crc32c(payload.data(), payload.size()) != it->second.shard_crcs[s]) {
        return Status::Corruption("scrub repair: shard " + std::to_string(s) +
                                  " of '" + table +
                                  "' still mismatches after reload");
      }
    }
    if (it->second.has_dict && heap.dict() != nullptr) {
      std::string payload = BuildDictPayload(*heap.dict());
      if (Crc32c(payload.data(), payload.size()) != it->second.dict_crc) {
        return Status::Corruption("scrub repair: dict of '" + table +
                                  "' still mismatches after reload");
      }
    }
  }
  return Status::OK();
}

Status DurabilityManager::Scrub(ScrubReport* report) {
  if (!open_status_.ok()) return open_status_;
  StructuralGate gate(this);
  Database::StructuralScope lock(db_);
  return ScrubLocked(report);
}

Status DurabilityManager::ScrubLocked(ScrubReport* report) {
  if (!opened_) return Status::OK();
  scrub_cycles_total_.fetch_add(1, std::memory_order_relaxed);
  ScrubReport local;
  if (report == nullptr) report = &local;
  *report = ScrubReport{};
  if (last_checkpoint_id_ == 0) return Status::OK();  // nothing persisted yet

  std::set<std::string> dirty;
  bool structural_dirty = false;
  {
    std::lock_guard<std::mutex> lk(dirty_mutex_);
    dirty = dirty_tables_;
    structural_dirty = structural_dirty_;
  }

  auto count_corruption = [&] {
    report->corruptions_found++;
    scrub_corruptions_found_.fetch_add(1, std::memory_order_relaxed);
  };

  // ---- Disk pass: re-validate every current-checkpoint segment CRC. ----
  std::set<std::pair<std::string, size_t>> disk_bad_shards;
  std::set<std::string> disk_bad_tables;   // meta/dict file rot
  std::set<std::string> disk_bad_indexes;
  bool disk_bad_other = false;             // CKMETA rot
  for (const SegmentRecord& rec : current_segments_) {
    report->segments_checked++;
    uint32_t crc = 0;
    Result<SegmentKind> kind = VerifySegmentFile(env_, rec.path, &crc);
    if (kind.ok() && *kind == rec.kind && crc == rec.crc) continue;
    count_corruption();
    switch (rec.kind) {
      case SegmentKind::kShardRows:
        disk_bad_shards.insert({rec.table, rec.shard});
        break;
      case SegmentKind::kTableMeta:
      case SegmentKind::kDict:
        disk_bad_tables.insert(rec.table);
        break;
      case SegmentKind::kIndex:
        disk_bad_indexes.insert(rec.constraint);
        break;
      case SegmentKind::kManifest:
        disk_bad_other = true;
        break;
    }
  }

  // ---- Memory pass: cross-check live state against checkpoint-time
  // fingerprints. Only meaningful for tables untouched since the
  // checkpoint (a write legitimately changes the bytes). ----
  std::set<std::pair<std::string, size_t>> mem_bad_shards;
  std::set<std::string> mem_bad_tables;    // dict / layout divergence
  std::set<std::string> mem_bad_indexes;
  if (!structural_dirty) {
    for (const auto& [table, baseline] : table_baselines_) {
      if (dirty.count(ToLower(table)) != 0) continue;
      Result<TableInfo*> info = db_->catalog()->GetTable(table);
      if (!info.ok()) continue;
      const TableHeap& heap = *(*info)->heap();
      if (heap.num_shards() != baseline.shard_crcs.size()) {
        mem_bad_tables.insert(table);
        count_corruption();
        continue;
      }
      for (size_t s = 0; s < heap.num_shards(); ++s) {
        std::string payload = BuildShardRowsPayload(heap, s);
        if (Crc32c(payload.data(), payload.size()) != baseline.shard_crcs[s]) {
          mem_bad_shards.insert({table, s});
          count_corruption();
        }
      }
      if (baseline.has_dict && heap.dict() != nullptr) {
        std::string payload = BuildDictPayload(*heap.dict());
        if (Crc32c(payload.data(), payload.size()) != baseline.dict_crc) {
          mem_bad_tables.insert(table);
          count_corruption();
        }
      }
    }
    for (const auto& [name, baseline_crc] : index_baselines_) {
      Result<const AccessConstraint*> c = catalog_->schema().Find(name);
      if (!c.ok()) continue;
      if (dirty.count(ToLower((*c)->table)) != 0) continue;
      const AcIndex* index = catalog_->IndexFor(name);
      if (index == nullptr) continue;
      std::string payload = BuildIndexPayload(*index);
      if (Crc32c(payload.data(), payload.size()) != baseline_crc) {
        mem_bad_indexes.insert(name);
        count_corruption();
      }
    }
  }

  auto table_of_constraint = [&](const std::string& name) -> std::string {
    Result<const AccessConstraint*> c = catalog_->schema().Find(name);
    return c.ok() ? (*c)->table : std::string();
  };

  // ---- Quarantine every implicated (table, heap shard). ----
  std::set<std::pair<std::string, size_t>> implicated;
  auto implicate_all_shards = [&](const std::string& table) {
    if (table.empty()) return;
    Result<TableInfo*> info = db_->catalog()->GetTable(table);
    size_t n = info.ok() ? (*info)->heap()->num_shards() : 1;
    for (size_t s = 0; s < n; ++s) implicated.insert({ToLower(table), s});
  };
  for (const auto& p : disk_bad_shards) implicated.insert({ToLower(p.first),
                                                           p.second});
  for (const auto& p : mem_bad_shards) implicated.insert({ToLower(p.first),
                                                          p.second});
  for (const std::string& t : disk_bad_tables) implicate_all_shards(t);
  for (const std::string& t : mem_bad_tables) implicate_all_shards(t);
  for (const std::string& ix : disk_bad_indexes) {
    implicate_all_shards(table_of_constraint(ix));
  }
  for (const std::string& ix : mem_bad_indexes) {
    implicate_all_shards(table_of_constraint(ix));
  }
  if (!implicated.empty()) {
    std::lock_guard<std::mutex> lk(quarantine_mutex_);
    quarantined_.insert(implicated.begin(), implicated.end());
    quarantined_count_.store(quarantined_.size(), std::memory_order_release);
  }

  // ---- Repair. ----
  // Memory corruption with clean segments: reload the table (and its
  // indexes) from the checkpoint — sound because the memory pass only ran
  // for tables with zero writes since the checkpoint, so the segments ARE
  // the authoritative bytes.
  std::set<std::string> mem_tables;
  for (const std::string& t : mem_bad_tables) mem_tables.insert(t);
  for (const auto& p : mem_bad_shards) mem_tables.insert(p.first);
  for (const std::string& ix : mem_bad_indexes) {
    std::string t = table_of_constraint(ix);
    if (!t.empty()) mem_tables.insert(t);
  }
  bool any_unrepairable = false;
  std::set<std::string> repaired_tables;  // lowercased
  for (const std::string& t : mem_tables) {
    bool disk_clean = disk_bad_tables.count(t) == 0;
    for (const auto& p : disk_bad_shards) {
      if (p.first == t) disk_clean = false;
    }
    for (const AccessConstraint& c : catalog_->schema().constraints()) {
      if (EqualsIgnoreCase(c.table, t) && disk_bad_indexes.count(c.name) != 0) {
        disk_clean = false;
      }
    }
    if (!disk_clean) {
      // Corrupt in memory AND its only durable copy is corrupt too:
      // nothing trustworthy to restore from. Stays quarantined.
      any_unrepairable = true;
      report->unrepairable++;
      continue;
    }
    Status reloaded = ReloadTableFromCheckpoint(t);
    if (!reloaded.ok()) {
      any_unrepairable = true;
      report->unrepairable++;
      continue;
    }
    repaired_tables.insert(ToLower(t));
    report->repairs++;
    scrub_repairs_total_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!repaired_tables.empty()) {
    std::lock_guard<std::mutex> lk(quarantine_mutex_);
    for (auto it = quarantined_.begin(); it != quarantined_.end();) {
      it = repaired_tables.count(it->first) != 0 ? quarantined_.erase(it)
                                                 : std::next(it);
    }
    quarantined_count_.store(quarantined_.size(), std::memory_order_release);
  }

  // Disk corruption with trustworthy memory: the live state is the
  // database of record — rewrite a fresh, read-back-verified checkpoint,
  // which supersedes every rotten segment at once. Skipped while any
  // unrepairable unit exists: checkpointing would persist its corrupt
  // in-memory bytes over the last good (if any) copy.
  bool disk_any = disk_bad_other || !disk_bad_shards.empty() ||
                  !disk_bad_tables.empty() || !disk_bad_indexes.empty();
  if (disk_any && !any_unrepairable) {
    BEAS_RETURN_NOT_OK(CheckpointLocked());
    uint64_t fixed = disk_bad_shards.size() + disk_bad_tables.size() +
                     disk_bad_indexes.size() + (disk_bad_other ? 1 : 0);
    report->repairs += fixed;
    scrub_repairs_total_.fetch_add(fixed, std::memory_order_relaxed);
    // Everything verified fresh end-to-end; nothing left to quarantine.
    std::lock_guard<std::mutex> lk(quarantine_mutex_);
    quarantined_.clear();
    quarantined_count_.store(0, std::memory_order_release);
  }

  if (any_unrepairable) {
    return Status::Corruption(
        "scrub: corruption present in both memory and its checkpoint "
        "segments; affected shards stay quarantined");
  }
  return Status::OK();
}

DurabilityCounters DurabilityManager::counters() const {
  DurabilityCounters out;
  out.wal_bytes_total = wal_bytes_total_.load(std::memory_order_relaxed);
  out.wal_records_total = wal_records_total_.load(std::memory_order_relaxed);
  out.wal_group_commits_total =
      wal_group_commits_total_.load(std::memory_order_relaxed);
  out.wal_fsyncs_total = wal_fsyncs_total_.load(std::memory_order_relaxed);
  out.checkpoints_total = checkpoints_total_.load(std::memory_order_relaxed);
  out.recovery_replayed_records =
      recovery_replayed_records_.load(std::memory_order_relaxed);
  out.wal_retries_total = wal_retries_total_.load(std::memory_order_relaxed);
  for (const auto& wal : shard_wals_) {
    if (wal->io_failed.load(std::memory_order_acquire)) {
      ++out.wal_latched_shards;
    }
  }
  out.scrub_cycles_total =
      scrub_cycles_total_.load(std::memory_order_relaxed);
  out.scrub_corruptions_found =
      scrub_corruptions_found_.load(std::memory_order_relaxed);
  out.scrub_repairs_total =
      scrub_repairs_total_.load(std::memory_order_relaxed);
  out.quarantined_shards =
      quarantined_count_.load(std::memory_order_relaxed);
  out.env_injected_faults = env_->injected_faults();
  return out;
}

}  // namespace durability
}  // namespace beas
