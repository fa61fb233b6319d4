#ifndef BEAS_DURABILITY_DURABILITY_MANAGER_H_
#define BEAS_DURABILITY_DURABILITY_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "asx/access_schema.h"
#include "common/env.h"
#include "common/result.h"
#include "durability/segment.h"
#include "durability/wal.h"
#include "engine/database.h"

namespace beas {
namespace durability {

/// \brief Durability tuning knobs (see README "Durability").
struct DurabilityOptions {
  /// Data directory. Empty disables durability entirely.
  std::string dir;

  /// MaybeCheckpoint fires once this many WAL bytes accumulated since
  /// the last checkpoint.
  uint64_t checkpoint_min_wal_bytes = 1ull << 22;

  /// The I/O environment all durability reads and writes go through.
  /// nullptr selects Env::Default() (the posix filesystem). Tests inject
  /// a fault-injecting Env, the only fault seam of this layer: it fails
  /// or cuts chosen I/O calls, tears unsynced bytes at power cuts and
  /// rots stored bits.
  Env* env = nullptr;
};

/// \brief Monotonic counters exported into `beas_stats`.
struct DurabilityCounters {
  uint64_t wal_bytes_total = 0;
  uint64_t wal_records_total = 0;
  uint64_t wal_group_commits_total = 0;
  uint64_t wal_fsyncs_total = 0;
  uint64_t checkpoints_total = 0;
  uint64_t recovery_replayed_records = 0;
  uint64_t wal_retries_total = 0;   ///< group commits re-attempted
  uint64_t wal_latched_shards = 0;  ///< shards refusing writes (gauge)
  uint64_t scrub_cycles_total = 0;
  uint64_t scrub_corruptions_found = 0;
  uint64_t scrub_repairs_total = 0;
  uint64_t quarantined_shards = 0;    ///< (table, shard) pairs (gauge)
  uint64_t env_injected_faults = 0;   ///< from the Env (0 on real disks)
};

/// \brief One scrub cycle's outcome.
struct ScrubReport {
  uint64_t segments_checked = 0;
  uint64_t corruptions_found = 0;   ///< disk + memory mismatches detected
  uint64_t repairs = 0;             ///< units restored to a verified state
  uint64_t unrepairable = 0;        ///< units corrupt on disk AND in memory
};

/// \brief The durability subsystem: per-shard write-ahead logs with group
/// commit, mmap'd segment checkpoints, crash recovery with checkpoint
/// fallback, and an online scrub-and-repair cycle.
///
/// ## Write protocol (data records)
///
/// A durable Insert/InsertBatch/Delete validates against the live schema,
/// serializes the operation, and pushes it onto the WAL queue of the
/// storage shard it routes to — a lock-free Treiber stack, one CAS per
/// producer. One *drainer* thread per WAL shard pops the whole stack at
/// once, stamps each record with a global LSN (pop order == apply order,
/// so per-shard LSNs are monotone by construction), appends the group as
/// one write, fsyncs ONCE for the whole group, and only then applies each
/// record through the normal Database write path (per-shard locks, write
/// hooks → AC-index maintenance). The producer's ack resolves after both
/// the fsync and the apply: an acked write is durable *and* visible.
/// Coalescing under load is automatic — every record enqueued while the
/// previous group was fsyncing rides the next group, so the fsync cost is
/// amortized across concurrent writers.
///
/// A failed group commit truncates the WAL back to the pre-group offset
/// (fsyncing the cut) and retries; a group that still fails is nacked
/// with kUnavailable. The file always ends at the last acked byte — a
/// torn append can never sit mid-file ahead of later acked groups, and a
/// nacked group's CRC-valid bytes can never be replayed. If the repair
/// itself fails, the group's bytes may still be in the log, so its
/// writers get kIoError: the write may or may not survive a restart. The
/// shard then latches (io_failed) and refuses everything from then on
/// with kUnavailable. The outcomes of a bad write are "never happened",
/// "outcome unknown" (said as such) or "shard refuses writes", never
/// "acked but silently unrecoverable".
///
/// ## Structural operations (meta records)
///
/// DDL, constraint registration/unregistration and bound adjustments
/// are logged *after* they apply, synchronously, to a dedicated meta WAL
/// — hooked via Database's DDL hook and AsCatalog's change listener, so
/// the service layer cannot forget to log one. The
/// *commit gate* (a shared_mutex ordered before every Database lock)
/// keeps them strictly ordered against data records: data writers hold it
/// shared from enqueue to ack; structural sections take it exclusive and
/// then wait for the queues to drain. A crash between apply and log loses
/// only an un-acked structural change — consistent by definition.
///
/// ## Checkpoints (verify-then-truncate, two generations retained)
///
/// CheckpointLocked (quiesced: commit gate exclusive + structural lock)
/// writes every table's heap shards, dictionary and slot directory plus
/// every AC index into a fresh `seg/ck<N>/` directory of CRC'd segment
/// files — including a `CKMETA` copy of the manifest payload so the
/// directory is self-describing — then *reads the whole set back through
/// the Env and re-verifies every CRC* before committing anything. Only
/// after verification does the atomically renamed MANIFEST flip recovery
/// to ck<N>; the WALs are then *rotated*, not truncated: every WAL file
/// moves to `wal/prev/` (whose previous contents — records already
/// covered by ck<N-1>'s segments twice over — are reclaimed) and fresh
/// WAL files start the new epoch. ck<N-1> is retained; only ck<N-2> and
/// older are GC'd. The result: recovery always has a fallback — if
/// ck<N>'s segments fail their CRC check (bit rot, torn writeback),
/// recovery restores ck<N-1> from its CKMETA and replays the retained
/// `wal/prev` + `wal` tail, which still covers every record since N-1.
///
/// ## Recovery
///
/// Recovery verifies the manifest's checkpoint (every segment CRC,
/// through the Env) *before* restoring a byte of it; on failure it falls
/// back to the newest older ck directory whose CKMETA and segments
/// verify. Restore is bit-identical (exact slot placement, exact
/// dictionary codes, exact bucket order); then the merged `wal` +
/// `wal/prev` tail ≥ the chosen checkpoint's replay LSN is applied in
/// LSN order. All-candidates-corrupt surfaces a typed kCorruption.
///
/// ## Scrub and quarantine
///
/// ScrubLocked — driven by the MaintenanceManager cycle via the
/// service's scrub hook — re-validates every current-checkpoint segment
/// CRC on disk, and cross-checks in-memory state (per-shard heap rows,
/// dictionaries, AC-index buckets) against the checkpoint-time payload
/// CRCs for tables untouched since the checkpoint. A mismatch counts as
/// a kCorruption finding and quarantines the (table, shard): reads keep
/// serving, durable writes to it latch kUnavailable. Repair: corrupt
/// memory with clean segments reloads the table (+ its indexes) from the
/// checkpoint through the normal restore path; corrupt segments with
/// clean memory rewrites a fresh verified checkpoint. Corrupt on both
/// sides stays quarantined and surfaces kCorruption.
class DurabilityManager {
 public:
  /// The manager logs through `db`/`catalog` and replays into them; both
  /// must outlive it. Nothing is read or written until Open().
  DurabilityManager(Database* db, AsCatalog* catalog, DurabilityOptions opts);

  /// Flushes and joins the drainers; never blocks on new work (the owner
  /// must have stopped producing).
  ~DurabilityManager();

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Recovers `dir` (or initializes it when empty) into the attached
  /// database, then starts the drainer threads. Call once, before the
  /// service is shared across threads; `db` must be empty.
  Status Open();

  /// The Open() verdict, re-checkable later (durable write paths also
  /// return it when Open failed).
  Status open_status() const { return open_status_; }

  /// \name Durable data writes.
  /// Ack ⇒ fsynced and applied. Safe from concurrent threads. A write
  /// routed at a quarantined (table, shard) refuses with kUnavailable.
  /// @{
  Status Insert(const std::string& table, Row row);
  Status InsertBatch(const std::string& table, std::vector<Row> rows);
  Status Delete(const std::string& table, const Row& row);
  /// @}

  /// Durable DDL: applies through the database (which fires the logging
  /// hook) under the commit gate.
  Result<TableInfo*> CreateTable(const std::string& name,
                                 const Schema& schema);

  /// RAII bracket for a structural section (constraint changes,
  /// maintenance cycles, checkpoints): commit gate exclusive + WAL queue
  /// barrier. While held, no data record is in flight anywhere — meta
  /// records logged inside observe a strict LSN order against all data.
  class StructuralGate {
   public:
    explicit StructuralGate(DurabilityManager* mgr) : mgr_(mgr) {
      if (mgr_ != nullptr) mgr_->EnterStructural();
    }
    ~StructuralGate() {
      if (mgr_ != nullptr) mgr_->LeaveStructural();
    }
    StructuralGate(const StructuralGate&) = delete;
    StructuralGate& operator=(const StructuralGate&) = delete;

   private:
    DurabilityManager* mgr_;
  };

  /// Takes its own gate + structural scope, then checkpoints.
  Status Checkpoint();

  /// Checkpoint iff the WAL grew past checkpoint_min_wal_bytes since the
  /// last one. Caller holds a StructuralGate AND the database structural
  /// lock exclusively (the maintenance checkpoint hook's calling
  /// convention). `did_out` (optional) reports whether one ran.
  Status MaybeCheckpointLocked(bool* did_out = nullptr);

  /// Unconditional checkpoint under the caller's gate + structural lock.
  /// The new segment set is read back and CRC-verified through the Env
  /// before the manifest commits (and before any old state is
  /// reclaimed). A failure before the commit removes the partial segment
  /// directory (and any orphaned older tries beyond the retained
  /// fallback) so a full disk is relieved rather than compounded, and
  /// surfaces kResourceExhausted when the fault is disk-full-shaped.
  Status CheckpointLocked();

  /// Takes its own gate + structural scope, then scrubs (see class
  /// comment). Returns kCorruption when a unit is corrupt on both sides
  /// (it stays quarantined); OK otherwise, even when repairs ran.
  Status Scrub(ScrubReport* report = nullptr);

  /// Scrub under the caller's gate + structural lock (the maintenance
  /// scrub hook's calling convention).
  Status ScrubLocked(ScrubReport* report = nullptr);

  DurabilityCounters counters() const;

 private:
  /// A producer-enqueued record awaiting group commit.
  struct Pending {
    WalRecord record;
    std::promise<Status> ack;
    Pending* next = nullptr;
  };

  /// One WAL shard: lock-free producer stack + drainer + log file.
  struct ShardWal {
    std::atomic<Pending*> head{nullptr};
    /// enqueued counts pushes; applied counts resolved acks. Equal ⇔ the
    /// queue is empty and every popped record finished applying — the
    /// StructuralGate barrier's condition.
    std::atomic<uint64_t> enqueued{0};
    std::atomic<uint64_t> applied{0};
    /// Latched when a failed group commit could not be repaired (the
    /// truncate back to the pre-group offset failed): the file may hold
    /// bytes the accounting cannot vouch for, so the shard refuses all
    /// further durable writes — acking past a torn record would let
    /// recovery silently drop the acked tail.
    std::atomic<bool> io_failed{false};
    std::unique_ptr<WritableFile> file;
    std::thread drainer;
    std::mutex wake_mutex;
    /// Producers / Barrier() -> drainer: work queued (or stop).
    std::condition_variable wake;
    /// Drainer -> Barrier(): applied advanced past another group.
    std::condition_variable applied_cv;
  };

  /// One file of the current checkpoint, as the scrubber sweeps it.
  struct SegmentRecord {
    std::string path;
    SegmentKind kind = SegmentKind::kManifest;
    uint32_t crc = 0;            ///< payload CRC recorded at write time
    std::string table;           ///< kTableMeta / kDict / kShardRows
    size_t shard = 0;            ///< kShardRows
    std::string constraint;      ///< kIndex
  };

  /// Checkpoint-time fingerprints of one table's in-memory state.
  struct TableBaseline {
    std::vector<uint32_t> shard_crcs;  ///< CRC of BuildShardRowsPayload
    bool has_dict = false;
    uint32_t dict_crc = 0;  ///< CRC of BuildDictPayload (DictBaselineCrc)
  };

  /// A parsed manifest / CKMETA payload.
  struct CheckpointMeta {
    uint64_t id = 0;
    uint64_t replay_from = 0;
    std::vector<std::string> tables;
    std::vector<std::string> constraints;
  };

  void EnterStructural();
  void LeaveStructural();
  /// Blocks on each shard's applied_cv until every shard queue has fully
  /// applied. Caller holds the commit gate exclusively, so no new record
  /// can be enqueued while waiting.
  void Barrier();

  /// Pushes a serialized record onto shard queue `wal_shard` and returns
  /// the ack future. Caller holds the commit gate shared.
  std::future<Status> Enqueue(size_t wal_shard, WalRecordType type,
                              std::string payload);

  void DrainerLoop(size_t wal_shard);

  /// Applies one record through the normal engine write path. Used by the
  /// drainers (data records) and by recovery replay (all records).
  Status ApplyRecord(const WalRecord& record);

  /// Stamps an LSN and synchronously appends+fsyncs to the meta WAL.
  /// Called from the structural-logging hooks (commit gate held
  /// exclusively by the structural section that triggered them).
  Status LogMeta(WalRecordType type, std::string payload);

  /// Hook bodies (registered on `db_`/`catalog_` by Open()).
  void OnDdl(const std::string& table);
  void OnCatalogChange(AsCatalog::ChangeKind kind, const std::string& name);

  /// kUnavailable if (table, shard) — or any shard of `table` when
  /// `shard` < 0 — is quarantined.
  Status CheckQuarantine(const std::string& table, int64_t shard) const;

  /// Writes checkpoint `id`'s segment files (including the CKMETA
  /// manifest copy) into `seg_dir`, assembles the manifest payload, and
  /// collects the scrub baseline. The pre-commit half of
  /// CheckpointLocked, split out so every failure inside funnels through
  /// one pressure-relief path.
  Status WriteCheckpointSegments(const std::string& seg_dir,
                                 ByteSink* manifest,
                                 std::vector<SegmentRecord>* segments,
                                 std::map<std::string, TableBaseline>* tables,
                                 std::map<std::string, uint32_t>* indexes);

  /// Reads back and CRC-verifies every segment file `meta` references in
  /// `seg_dir` through the Env, without touching engine state. Collects
  /// the scrub baseline (optional outs).
  Status VerifyCheckpoint(const std::string& seg_dir,
                          const CheckpointMeta& meta,
                          std::vector<SegmentRecord>* segments,
                          std::map<std::string, TableBaseline>* tables,
                          std::map<std::string, uint32_t>* indexes);

  /// Parses a manifest / CKMETA file (segment-framed, kind kManifest).
  Result<CheckpointMeta> LoadCheckpointMeta(const std::string& path);

  /// Archives the current WAL epoch into wal/prev (reclaiming the epoch
  /// before it) and opens fresh WAL files. Caller holds the gate; the
  /// queues are drained. On failure, every handle it could not reopen
  /// latches its shard (or the meta log) rather than dangling.
  Status RotateWals();

  /// Removes seg/ck* directories other than `keep_id` and `keep_id - 1`.
  void GcCheckpointDirs(uint64_t keep_id);

  Status Recover();
  /// Restores one checkpointed table (meta + dict + shard segments).
  Status RestoreTable(const std::string& seg_dir, const std::string& table);
  /// Restores one checkpointed AC index.
  Status RestoreIndex(const std::string& seg_dir, const std::string& name);

  /// Drops `table` and reloads it (and its AC indexes) from the current
  /// checkpoint — the scrub repair for corrupt-in-memory, clean-on-disk.
  Status ReloadTableFromCheckpoint(const std::string& table);

  /// Marks `table` written-to since the last checkpoint (its memory
  /// baseline is stale until the next one).
  void MarkTableDirty(const std::string& table);
  void MarkStructuralDirty();

  std::string WalPath(size_t wal_shard) const;
  std::string MetaWalPath() const;
  std::string WalDir() const { return options_.dir + "/wal"; }
  std::string WalPrevDir() const { return options_.dir + "/wal/prev"; }
  std::string SegDir(uint64_t checkpoint_id) const;

  Database* db_;
  AsCatalog* catalog_;
  DurabilityOptions options_;
  Env* env_;  ///< options_.env or Env::Default(); never null after ctor
  Status open_status_ = Status::OK();
  bool opened_ = false;

  /// The commit gate. Lock order: commit gate, then any Database lock.
  std::shared_mutex commit_mutex_;

  /// Next LSN to hand out. Drainers stamp data records at pop time;
  /// LogMeta stamps meta records inline.
  std::atomic<uint64_t> next_lsn_{1};

  size_t wal_shard_count_ = 1;
  std::vector<std::unique_ptr<ShardWal>> shard_wals_;
  std::atomic<bool> stop_{false};

  /// Meta WAL: only structural sections (gate-exclusive) append, but the
  /// mutex keeps the file state well-defined regardless.
  std::mutex meta_mutex_;
  std::unique_ptr<WritableFile> meta_wal_;

  /// True while Recover() replays — the logging hooks no-op so replayed
  /// operations are not logged twice. (The hooks are also only registered
  /// after recovery; this is belt-and-braces.)
  bool replaying_ = false;

  /// Latched when a structural logging hook fails to persist its meta
  /// record (the void hook signature cannot propagate the status).
  /// Durable write paths refuse further work once set — the in-memory
  /// state is ahead of the log, so acking anything more would lie.
  std::atomic<bool> meta_log_failed_{false};

  uint64_t last_checkpoint_id_ = 0;
  std::atomic<uint64_t> wal_bytes_since_checkpoint_{0};

  /// \name Scrub state. The segment list and baselines are written under
  /// the structural gate (checkpoint / recovery / scrub) and read under
  /// it; the dirty set is additionally written by drainer threads, hence
  /// its own mutex.
  /// @{
  std::vector<SegmentRecord> current_segments_;
  std::map<std::string, TableBaseline> table_baselines_;
  std::map<std::string, uint32_t> index_baselines_;
  std::mutex dirty_mutex_;
  std::set<std::string> dirty_tables_;
  bool structural_dirty_ = false;

  mutable std::mutex quarantine_mutex_;
  std::set<std::pair<std::string, size_t>> quarantined_;
  std::atomic<uint64_t> quarantined_count_{0};
  /// @}

  std::atomic<uint64_t> wal_bytes_total_{0};
  std::atomic<uint64_t> wal_records_total_{0};
  std::atomic<uint64_t> wal_group_commits_total_{0};
  std::atomic<uint64_t> wal_fsyncs_total_{0};
  std::atomic<uint64_t> checkpoints_total_{0};
  std::atomic<uint64_t> recovery_replayed_records_{0};
  std::atomic<uint64_t> wal_retries_total_{0};
  std::atomic<uint64_t> scrub_cycles_total_{0};
  std::atomic<uint64_t> scrub_corruptions_found_{0};
  std::atomic<uint64_t> scrub_repairs_total_{0};
};

}  // namespace durability
}  // namespace beas

#endif  // BEAS_DURABILITY_DURABILITY_MANAGER_H_
