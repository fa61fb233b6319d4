// Env fault sweep: fail one I/O call of every durable-write protocol step
// through FaultInjectingEnv — the WAL group's append and fsync, the
// truncate-repair, checkpoint segment writes (plain and disk-full), the
// seg/ directory fsync, the read-back verification and the WAL rotation
// after the commit — and assert the typed verdicts: a transient fault is
// retried and acked without latching the shard, a persistent one latches
// it with kUnavailable, a failed checkpoint reports a typed error and
// reclaims its half-written segments, and recovery after every fault
// matches an in-memory replay of the acked operations. Also covers torn
// WAL tails, checkpoint fallback and the scrub. The kill-point sweep in
// durability_test.cc cuts at the same calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/env.h"
#include "common/shard_config.h"
#include "durability/durability_manager.h"
#include "durability/segment.h"
#include "durability/serde.h"
#include "durability/wal.h"
#include "service/beas_service.h"
#include "support/test_env.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::Dt;
using testing_util::I;
using testing_util::S;
using testing_util::ShardOverrideGuard;
using FaultOp = FaultInjectingEnv::FaultOp;
using Fault = FaultInjectingEnv::Fault;

/// Path parts the faults match on: every data shard's WAL (not the meta
/// WAL), and every file of a checkpoint's segment set.
constexpr const char* kShardWal = "/wal/shard_";
constexpr const char* kSegmentFiles = "/seg/ck";

/// One Env fault: `fault` on the `nth` call of `op` on a path containing
/// `path_part`.
struct EnvFault {
  const char* what;
  FaultOp op;
  const char* path_part;
  Fault fault;
  uint64_t nth = 1;

  void Arm(FaultInjectingEnv* env) const {
    env->ArmFault(op, path_part, fault, nth);
  }
};

Schema CallSchema() {
  return Schema({{"pnum", TypeId::kInt64},
                 {"recnum", TypeId::kInt64},
                 {"date", TypeId::kDate},
                 {"region", TypeId::kString}});
}

std::unique_ptr<BeasService> MakeService(const std::string& data_dir,
                                         Env* env = nullptr) {
  ServiceOptions options;
  options.num_workers = 1;
  if (!data_dir.empty()) {
    options.durability.dir = data_dir;
    options.durability.env = env;
  }
  return std::make_unique<BeasService>(options);
}

/// Everything recovery must restore, rendered deterministically: heap slot
/// layout with liveness, dictionary contents, registered constraints with
/// their AC-index buckets, and a bounded query through the restored index.
std::string StateFingerprint(BeasService* svc) {
  std::ostringstream out;
  Database* db = svc->db();
  for (const std::string& name : db->catalog()->TableNames()) {
    auto info = db->catalog()->GetTable(name);
    if (!info.ok()) continue;
    const TableHeap& heap = *info.ValueOrDie()->heap();
    out << "table " << name << " schema " << heap.schema().ToString() << "\n";
    for (size_t slot = 0; slot < heap.NumSlots(); ++slot) {
      auto [shard, local] = heap.DirectorySlot(slot);
      out << "  slot " << slot << " -> (" << shard << "," << local << ") "
          << (heap.ShardRowLive(shard, local) ? "live " : "dead ")
          << RowToString(heap.DecodeRow(heap.ShardCellsAt(shard, local))) << "\n";
    }
    const StringDict* dict = heap.dict();
    if (dict != nullptr) {
      out << "  dict size=" << dict->size() << "\n";
      for (uint32_t code = 0; code < dict->size(); ++code) {
        out << "    " << code << " => " << dict->str(code) << "\n";
      }
    }
  }
  for (const AccessConstraint& c : svc->catalog()->schema().constraints()) {
    out << "constraint " << c.name << " on " << c.table << " N=" << c.limit_n
        << "\n";
    const AcIndex* index = svc->catalog()->IndexFor(c.name);
    if (index == nullptr) continue;
    std::vector<std::string> buckets;
    index->ForEachBucket([&buckets](const ValueVec& key,
                                    const AcIndex::BucketView& ys) {
      std::ostringstream b;
      b << "  " << RowToString(key) << " :";
      for (size_t i = 0; i < ys.size(); ++i) {
        b << " " << RowToString(ys.YRow(i)) << "x" << ys.multiplicity(i);
      }
      buckets.push_back(b.str());
    });
    std::sort(buckets.begin(), buckets.end());
    for (const std::string& b : buckets) out << b << "\n";
  }
  auto resp = svc->Query(
      {"SELECT call.region FROM call WHERE call.pnum = 2 AND "
       "call.date = '2016-01-01'",
       QueryMode::kBoundedOnly});
  if (resp.ok()) {
    std::vector<Row> rows = resp->result.rows;
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return CompareValueVec(a, b) < 0;
    });
    out << "bounded:";
    for (const Row& row : rows) out << " " << RowToString(row);
    out << "\n";
  } else {
    out << "bounded error: " << resp.status().ToString() << "\n";
  }
  return out.str();
}

/// The fixed op script every sweep case replays: schema, three writes
/// (the second one under `fault`, armed on `env`, when given), and a
/// constraint.
Status ApplyOps(BeasService* svc, Status* faulted_insert,
                FaultInjectingEnv* env = nullptr,
                const EnvFault* fault = nullptr) {
  BEAS_RETURN_NOT_OK(svc->CreateTable("call", CallSchema()).status());
  BEAS_RETURN_NOT_OK(
      svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r1")}));
  if (fault != nullptr) fault->Arm(env);
  *faulted_insert =
      svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r2")});
  if (env != nullptr) env->ClearFaults();
  BEAS_RETURN_NOT_OK(
      svc->Insert("call", {I(3), I(3), Dt("2016-01-01"), S("r2")}));
  return svc->RegisterConstraint(
      {"psi1", "call", {"pnum", "date"}, {"recnum", "region"}, 500});
}

// ---------------------------------------------------------------------------
// WAL faults: a single failed call anywhere in the group commit is a
// transient fault — the drainer repairs, retries and acks. The shard must
// not latch, and recovery must match the in-memory replay bit for bit,
// both on a restart and from the synced bytes alone. (A failed
// truncate-repair alone never fires: repair only runs after a group
// failure — the armed-but-unhit case must be a clean no-op too.)
// ---------------------------------------------------------------------------

TEST(EnvFaultSweepTest, TransientWalFaultsAreRetriedAndRecoverExactly) {
  const EnvFault kWalFaults[] = {
      {"append fails", FaultOp::kAppend, kShardWal, Fault::kFail},
      {"fsync fails", FaultOp::kSync, kShardWal, Fault::kFail},
      {"fsync persists, then fails", FaultOp::kSync, kShardWal,
       Fault::kFailAfterEffect},
      {"truncate fails", FaultOp::kTruncate, kShardWal, Fault::kFail},
  };
  for (size_t shards : {size_t{1}, size_t{3}}) {
    for (const EnvFault& fault : kWalFaults) {
      SCOPED_TRACE(std::string(fault.what) + " shards=" +
                   std::to_string(shards));
      ShardOverrideGuard guard(shards);
      const bool fires = fault.op != FaultOp::kTruncate;

      std::unique_ptr<BeasService> reference = MakeService("");
      Status ref_faulted;
      ASSERT_TRUE(ApplyOps(reference.get(), &ref_faulted).ok());
      ASSERT_TRUE(ref_faulted.ok());
      std::string expected = StateFingerprint(reference.get());

      FaultInjectingEnv env(shards);
      const std::string data_dir = "/sweepfs/data";
      {
        std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
        ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
        Status faulted;
        Status st = ApplyOps(svc.get(), &faulted, &env, &fault);
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_TRUE(faulted.ok())
            << "single-shot fault must be retried, got: " << faulted.ToString();
        EXPECT_EQ(env.injected_faults(), fires ? 1u : 0u);
        durability::DurabilityCounters counters = svc->durability_counters();
        EXPECT_EQ(counters.wal_retries_total, fires ? 1u : 0u);
        EXPECT_EQ(counters.wal_latched_shards, 0u)
            << "a transient fault must never latch a shard";
        EXPECT_EQ(StateFingerprint(svc.get()), expected);
      }
      {
        std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
        ASSERT_TRUE(recovered->durable())
            << recovered->durability_status().ToString();
        EXPECT_EQ(StateFingerprint(recovered.get()), expected);
      }
      // Every ack was fsynced, and the failed attempt's bytes were cut
      // back durably: the synced bytes alone recover the same state.
      env.InstallCrashImage();
      std::unique_ptr<BeasService> crashed = MakeService(data_dir, &env);
      ASSERT_TRUE(crashed->durable()) << crashed->durability_status().ToString();
      EXPECT_EQ(StateFingerprint(crashed.get()), expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint faults: a failed checkpoint must surface a typed error,
// reclaim its half-written segment directory (pressure relief — on
// ENOSPC the verdict is kResourceExhausted), leave the service serving
// writes, and leave the directory recoverable, also by a power cut right
// after the failure. A fault after the commit point (the WAL rotation)
// reports the error but the checkpoint itself is durable.
// ---------------------------------------------------------------------------

struct CheckpointCase {
  const char* what;
  std::function<void(FaultInjectingEnv*)> arm;
  StatusCode expected_code;
  bool committed;  ///< the checkpoint landed despite the reported error
};

TEST(EnvFaultSweepTest, CheckpointFaultsAreTypedAndReclaimed) {
  const std::string data_dir = "/sweepfs/data";
  auto fault = [](FaultOp op, const char* path_part, Fault effect,
                  uint64_t nth = 1) {
    return [=](FaultInjectingEnv* env) {
      env->ArmFault(op, path_part, effect, nth);
    };
  };
  const CheckpointCase kCases[] = {
      {"segment append fails",
       fault(FaultOp::kAppend, kSegmentFiles, Fault::kFail),
       StatusCode::kIoError, false},
      {"segment append hits a full disk",
       fault(FaultOp::kAppend, kSegmentFiles, Fault::kFailNoSpace),
       StatusCode::kResourceExhausted, false},
      // The checkpoint fsyncs ck<N>/ first, then seg/ (ck<N>'s own entry).
      {"seg/ fsync fails", fault(FaultOp::kSyncDir, "/seg", Fault::kFail, 2),
       StatusCode::kIoError, false},
      {"read-back comes up short",
       [&](FaultInjectingEnv* env) {
         env->ArmShortRead(data_dir + "/seg/ck1/t_call.s0.seg");
       },
       StatusCode::kCorruption, false},
      {"WAL rotation rename fails",
       fault(FaultOp::kRenameFile, "/wal/", Fault::kFail),
       StatusCode::kIoError, true},
  };
  for (const CheckpointCase& test_case : kCases) {
    SCOPED_TRACE(test_case.what);
    ShardOverrideGuard guard(1);

    std::unique_ptr<BeasService> reference = MakeService("");
    Status ref_faulted;
    ASSERT_TRUE(ApplyOps(reference.get(), &ref_faulted).ok());
    const std::string at_fault = StateFingerprint(reference.get());
    ASSERT_TRUE(
        reference->Insert("call", {I(4), I(4), Dt("2016-01-02"), S("r1")})
            .ok());
    std::string expected = StateFingerprint(reference.get());

    FaultInjectingEnv env(17);
    {
      std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
      ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
      Status faulted;
      ASSERT_TRUE(ApplyOps(svc.get(), &faulted).ok());
      ASSERT_TRUE(faulted.ok());

      test_case.arm(&env);
      Status st = svc->Checkpoint();
      env.ClearFaults();
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), test_case.expected_code) << st.ToString();
      EXPECT_EQ(env.injected_faults(), 1u);
      EXPECT_EQ(svc->durability_counters().checkpoints_total,
                test_case.committed ? 1u : 0u);
      // An uncommitted try left no segment directory behind.
      if (!test_case.committed) {
        EXPECT_FALSE(env.FileExists(data_dir + "/seg/ck1"));
      }
      // A machine crash right here must still recover the acked state.
      env.CutNow(FaultInjectingEnv::TearPolicy::kDropAll);

      // The failure is not sticky: the service still serves durable
      // writes, and the next checkpoint (over the reclaimed space)
      // succeeds.
      ASSERT_TRUE(
          svc->Insert("call", {I(4), I(4), Dt("2016-01-02"), S("r1")}).ok());
      Status retried = svc->Checkpoint();
      EXPECT_TRUE(retried.ok()) << retried.ToString();
      EXPECT_EQ(StateFingerprint(svc.get()), expected);
    }
    {
      std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
      ASSERT_TRUE(recovered->durable())
          << recovered->durability_status().ToString();
      EXPECT_EQ(StateFingerprint(recovered.get()), expected);
      // Nothing replays: the post-fault checkpoint captured everything.
      EXPECT_EQ(recovered->durability_counters().recovery_replayed_records,
                0u);
    }
    env.InstallCrashImage();
    std::unique_ptr<BeasService> crashed = MakeService(data_dir, &env);
    ASSERT_TRUE(crashed->durable()) << crashed->durability_status().ToString();
    EXPECT_EQ(StateFingerprint(crashed.get()), at_fault);
  }
}

// ---------------------------------------------------------------------------
// Persistent faults: when every attempt fails, the group commit gives up,
// latches the shard, and surfaces kUnavailable — the typed signal a front
// door can act on. A refused append is repaired and retried until the
// retry limit; a device whose every fsync fails cannot persist the
// repair's cut either, so the shard latches on the first failure and
// that group's writer gets kIoError (its outcome is unknown).
// ---------------------------------------------------------------------------

TEST(EnvFaultSweepTest, PersistentWalFaultsLatchWithTypedUnavailable) {
  struct PersistentCase {
    EnvFault fault;
    uint64_t retries;
    StatusCode first;  ///< the faulted group's status
  };
  // When every fsync fails, the repair's own fsync fails too: the group's
  // bytes may or may not survive a restart, and its writer hears so.
  const PersistentCase kCases[] = {
      {{"every append fails", FaultOp::kAppend, kShardWal, Fault::kFail,
        FaultInjectingEnv::kEveryCall},
       3, StatusCode::kUnavailable},
      {{"every fsync fails", FaultOp::kSync, kShardWal, Fault::kFail,
        FaultInjectingEnv::kEveryCall},
       0, StatusCode::kIoError},
  };
  for (const PersistentCase& test_case : kCases) {
    SCOPED_TRACE(test_case.fault.what);
    ShardOverrideGuard guard(1);
    FaultInjectingEnv env(19);
    const std::string data_dir = "/sweepfs/data";
    {
      std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
      ASSERT_TRUE(svc->durable());
      ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
      ASSERT_TRUE(
          svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r1")}).ok());
      test_case.fault.Arm(&env);
      Status st = svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r2")});
      env.ClearFaults();
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), test_case.first) << st.ToString();
      durability::DurabilityCounters counters = svc->durability_counters();
      EXPECT_EQ(counters.wal_latched_shards, 1u);
      EXPECT_EQ(counters.wal_retries_total, test_case.retries);
      // The latch is sticky and typed, even after the fault clears.
      st = svc->Insert("call", {I(3), I(3), Dt("2016-01-01"), S("r1")});
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    }
    // Only the pre-fault prefix recovers.
    std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
    ASSERT_TRUE(recovered->durable())
        << recovered->durability_status().ToString();
    auto info = recovered->db()->catalog()->GetTable("call");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.ValueOrDie()->heap()->NumRows(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Sector-granular torn WAL tails, driven through FaultInjectingEnv: the
// model tears an unsynced tail at 512-byte sector granularity, so a power
// cut can land inside a single framed record or exactly on a
// group-commit boundary. Recovery must drop exactly the torn record and
// preserve every acked record bit for bit.
// ---------------------------------------------------------------------------

TEST(TornWalTailTest, TearInsideOneRecordDropsExactlyThatRecord) {
  ShardOverrideGuard guard(1);
  const std::string data_dir = "/tearfs/data";

  std::unique_ptr<BeasService> reference = MakeService("");
  ASSERT_TRUE(reference->CreateTable("call", CallSchema()).ok());
  ASSERT_TRUE(
      reference->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r1")}).ok());
  std::string expected = StateFingerprint(reference.get());

  FaultInjectingEnv env(7);
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
    ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
    ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
    ASSERT_TRUE(
        svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r1")}).ok());
    // The very next append is the second insert's WAL record; a cut five
    // bytes into it lands inside the record frame (len+crc header), so
    // even with every unsynced byte surviving, the tail holds a torn,
    // CRC-less fragment of that record.
    env.ScheduleCutAfterBytes(5, FaultInjectingEnv::TearPolicy::kKeepAll);
    ASSERT_TRUE(
        svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r2")}).ok());
  }
  ASSERT_TRUE(env.CutTriggered());
  env.InstallCrashImage();

  std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(StateFingerprint(recovered.get()), expected);

  // The torn fragment was truncated away: a fresh durable write extends a
  // clean prefix and survives an ordinary reopen.
  ASSERT_TRUE(
      recovered->Insert("call", {I(3), I(3), Dt("2016-01-02"), S("r1")}).ok());
  ASSERT_TRUE(
      reference->Insert("call", {I(3), I(3), Dt("2016-01-02"), S("r1")}).ok());
  recovered.reset();
  std::unique_ptr<BeasService> reopened = MakeService(data_dir, &env);
  ASSERT_TRUE(reopened->durable()) << reopened->durability_status().ToString();
  EXPECT_EQ(StateFingerprint(reopened.get()), StateFingerprint(reference.get()));
}

TEST(TornWalTailTest, TearAtGroupCommitBoundaryKeepsAckedBytesBitIdentical) {
  ShardOverrideGuard guard(1);
  const std::string data_dir = "/tearfs2/data";
  const std::string wal_path = data_dir + "/wal/shard_0.wal";

  std::unique_ptr<BeasService> reference = MakeService("");
  ASSERT_TRUE(reference->CreateTable("call", CallSchema()).ok());
  ASSERT_TRUE(
      reference->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r1")}).ok());
  std::string expected = StateFingerprint(reference.get());

  FaultInjectingEnv env(11);
  durability::WalReadResult before;
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
    ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
    ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
    ASSERT_TRUE(
        svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r1")}).ok());
    auto read = durability::ReadWalFile(&env, wal_path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(read->records.size(), 1u);
    before = std::move(*read);
    // One byte into the next group commit: the unsynced tail starts
    // exactly at the record boundary, and kDropAll tears the whole new
    // group away — the pure "cut between two fsyncs" case.
    env.ScheduleCutAfterBytes(1, FaultInjectingEnv::TearPolicy::kDropAll);
    ASSERT_TRUE(
        svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r2")}).ok());
  }
  ASSERT_TRUE(env.CutTriggered());
  env.InstallCrashImage();

  // The acked record survives bit for bit: same valid prefix, same frame.
  auto after = durability::ReadWalFile(&env, wal_path);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->records.size(), 1u);
  EXPECT_EQ(after->valid_bytes, before.valid_bytes);
  EXPECT_EQ(after->records[0].lsn, before.records[0].lsn);
  EXPECT_EQ(static_cast<int>(after->records[0].type),
            static_cast<int>(before.records[0].type));
  EXPECT_EQ(after->records[0].payload, before.records[0].payload);

  std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(StateFingerprint(recovered.get()), expected);
}

// ---------------------------------------------------------------------------
// Checkpoint fallback: when the newest checkpoint's segments rot on disk,
// recovery must detect it during verification (before restoring anything)
// and fall back to the previous checkpoint plus the retained WAL epoch —
// losing nothing.
// ---------------------------------------------------------------------------

TEST(CheckpointFallbackTest, CorruptedNewestCheckpointFallsBackToPrevious) {
  ShardOverrideGuard guard(1);
  const std::string data_dir = "/ckfallfs/data";

  std::unique_ptr<BeasService> reference = MakeService("");
  Status ref_faulted;
  ASSERT_TRUE(ApplyOps(reference.get(), &ref_faulted).ok());
  ASSERT_TRUE(
      reference->Insert("call", {I(4), I(4), Dt("2016-01-02"), S("r1")}).ok());
  ASSERT_TRUE(
      reference->Insert("call", {I(5), I(5), Dt("2016-01-02"), S("r2")}).ok());
  std::string expected = StateFingerprint(reference.get());

  FaultInjectingEnv env(23);
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
    ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
    Status faulted;
    ASSERT_TRUE(ApplyOps(svc.get(), &faulted).ok());
    ASSERT_TRUE(faulted.ok());
    ASSERT_TRUE(svc->Checkpoint().ok());  // ck1
    ASSERT_TRUE(
        svc->Insert("call", {I(4), I(4), Dt("2016-01-02"), S("r1")}).ok());
    ASSERT_TRUE(
        svc->Insert("call", {I(5), I(5), Dt("2016-01-02"), S("r2")}).ok());
    ASSERT_TRUE(svc->Checkpoint().ok());  // ck2 rotates ck1's WAL to prev/
  }
  // Cold bit rot inside ck2's row segment, past the 21-byte header: the
  // frame still parses, the payload CRC does not.
  ASSERT_TRUE(
      env.FlipBit(data_dir + "/seg/ck2/t_call.s0.seg", 25, 3).ok());

  std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(StateFingerprint(recovered.get()), expected);
  // The fallback really replayed the post-ck1 tail from the retained
  // previous WAL epoch instead of trusting the rotten ck2.
  EXPECT_GE(recovered->durability_counters().recovery_replayed_records, 2u);

  // The fallen-back service is fully live: it can checkpoint fresh and
  // reopen cleanly from that.
  ASSERT_TRUE(recovered->Checkpoint().ok());
  recovered.reset();
  std::unique_ptr<BeasService> reopened = MakeService(data_dir, &env);
  ASSERT_TRUE(reopened->durable()) << reopened->durability_status().ToString();
  EXPECT_EQ(StateFingerprint(reopened.get()), expected);
  EXPECT_EQ(reopened->durability_counters().recovery_replayed_records, 0u);
}

// A version 1 table meta segment whose dictionary flag contradicts its
// schema (0 on a table with a STRING column) passes the CRC but is
// corruption: recovery must reject that checkpoint in verification and
// fall back exactly as it does for bit rot. Current writers drop the flag,
// so ck2's meta is rewritten in version 1 framing with the flag inserted.
TEST(CheckpointFallbackTest, DictionaryFlagOffOnAStringTableFallsBack) {
  ShardOverrideGuard guard(1);
  const std::string data_dir = "/ckdictfs/data";

  std::unique_ptr<BeasService> reference = MakeService("");
  Status ref_faulted;
  ASSERT_TRUE(ApplyOps(reference.get(), &ref_faulted).ok());
  ASSERT_TRUE(
      reference->Insert("call", {I(4), I(4), Dt("2016-01-02"), S("r1")}).ok());
  std::string expected = StateFingerprint(reference.get());

  FaultInjectingEnv env(29);
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
    ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
    Status faulted;
    ASSERT_TRUE(ApplyOps(svc.get(), &faulted).ok());
    ASSERT_TRUE(faulted.ok());
    ASSERT_TRUE(svc->Checkpoint().ok());  // ck1
    ASSERT_TRUE(
        svc->Insert("call", {I(4), I(4), Dt("2016-01-02"), S("r1")}).ok());
    ASSERT_TRUE(svc->Checkpoint().ok());  // ck2 rotates ck1's WAL to prev/
  }
  // Rewrite ck2's call meta as version 1 with the dictionary flag cleared,
  // under a valid frame and CRC.
  const std::string meta_path = data_dir + "/seg/ck2/t_call.meta.seg";
  std::string payload;
  {
    auto view = durability::OpenSegment(&env, meta_path,
                                        durability::SegmentKind::kTableMeta);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ASSERT_EQ(view->version, durability::kSegVersion);
    payload.assign(view->payload, view->payload_len);
  }
  ByteReader r(payload.data(), payload.size());
  ASSERT_TRUE(durability::ReadSchema(&r).ok());
  payload.insert(payload.size() - r.remaining(), 1, '\0');
  ByteSink file;
  file.PutU32(durability::kSegMagic);
  file.PutU32(1);
  file.PutU8(static_cast<uint8_t>(durability::SegmentKind::kTableMeta));
  file.PutU32(Crc32c(payload.data(), payload.size()));
  file.PutU64(payload.size());
  file.PutRaw(payload.data(), payload.size());
  ASSERT_TRUE(env.WriteFileAtomic(meta_path, file.str()).ok());

  std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(StateFingerprint(recovered.get()), expected);
  // ck1 plus the retained WAL epoch, not the malformed ck2.
  EXPECT_GE(recovered->durability_counters().recovery_replayed_records, 1u);
  Result<TableInfo*> call = recovered->db()->catalog()->GetTable("call");
  ASSERT_TRUE(call.ok());
  EXPECT_NE((*call)->heap()->dict(), nullptr);
}

// ---------------------------------------------------------------------------
// Online scrub-and-repair: the cycle re-verifies checkpoint segments on
// disk and cross-checks untouched tables against their checkpoint-time
// fingerprints in memory; corruption is quarantined, repaired from
// whichever side is still trustworthy, and only a both-sides loss stays
// quarantined with a typed kCorruption.
// ---------------------------------------------------------------------------

struct ScrubFixture {
  FaultInjectingEnv env;
  std::string data_dir;
  std::unique_ptr<BeasService> svc;
  std::string expected;  ///< fingerprint at checkpoint time

  explicit ScrubFixture(uint64_t seed, const std::string& dir)
      : env(seed), data_dir(dir) {
    svc = MakeService(data_dir, &env);
    EXPECT_TRUE(svc->durable()) << svc->durability_status().ToString();
    Status faulted;
    EXPECT_TRUE(ApplyOps(svc.get(), &faulted).ok());
    EXPECT_TRUE(faulted.ok());
    EXPECT_TRUE(svc->Checkpoint().ok());
    expected = StateFingerprint(svc.get());
  }

  std::string RowSegPath(uint64_t checkpoint_id = 1) const {
    return data_dir + "/seg/ck" + std::to_string(checkpoint_id) +
           "/t_call.s0.seg";
  }

  /// Flips one stored cell in place — in-memory rot that no write path
  /// produced, so the table stays "clean since checkpoint" and the scrub
  /// memory pass is responsible for catching it.
  void RotMemoryRow() {
    auto info = svc->db()->catalog()->GetTable("call");
    ASSERT_TRUE(info.ok());
    TableHeap* heap = info.ValueOrDie()->heap();
    ASSERT_TRUE(heap->ShardRowLive(0, 0));
    heap->MutableShardCellsForTesting(0, 0)[1] = 424242;  // recnum
  }
};

TEST(ScrubTest, DiskRotIsDetectedQuarantinedAndRepairedByRecheckpoint) {
  ShardOverrideGuard guard(1);
  ScrubFixture fx(31, "/scrubfs/disk");

  ASSERT_TRUE(fx.env.FlipBit(fx.RowSegPath(), 24, 2).ok());

  durability::ScrubReport report;
  Status st = fx.svc->Scrub(&report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(report.segments_checked, 4u);  // meta, dict, rows, index, CKMETA
  EXPECT_EQ(report.corruptions_found, 1u);
  EXPECT_EQ(report.repairs, 1u);
  EXPECT_EQ(report.unrepairable, 0u);

  durability::DurabilityCounters counters = fx.svc->durability_counters();
  EXPECT_GE(counters.scrub_cycles_total, 1u);
  EXPECT_EQ(counters.scrub_corruptions_found, 1u);
  EXPECT_EQ(counters.scrub_repairs_total, 1u);
  EXPECT_EQ(counters.quarantined_shards, 0u);
  // The repair is a fresh, read-back-verified checkpoint superseding the
  // rotten segment.
  EXPECT_EQ(counters.checkpoints_total, 2u);
  EXPECT_GE(counters.env_injected_faults, 1u);

  // State is untouched, writes still flow, and a second scrub is clean.
  EXPECT_EQ(StateFingerprint(fx.svc.get()), fx.expected);
  ASSERT_TRUE(
      fx.svc->Insert("call", {I(9), I(9), Dt("2016-01-02"), S("r2")}).ok());
  durability::ScrubReport again;
  EXPECT_TRUE(fx.svc->Scrub(&again).ok());
  EXPECT_EQ(again.corruptions_found, 0u);

  // And the repaired directory recovers.
  std::string full = StateFingerprint(fx.svc.get());
  fx.svc.reset();
  std::unique_ptr<BeasService> recovered = MakeService(fx.data_dir, &fx.env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(StateFingerprint(recovered.get()), full);
}

TEST(ScrubTest, MemoryRotIsDetectedAndReloadedFromTheCheckpoint) {
  ShardOverrideGuard guard(1);
  ScrubFixture fx(37, "/scrubfs/mem");

  fx.RotMemoryRow();
  ASSERT_NE(StateFingerprint(fx.svc.get()), fx.expected);

  durability::ScrubReport report;
  Status st = fx.svc->Scrub(&report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.corruptions_found, 1u);
  EXPECT_EQ(report.repairs, 1u);
  EXPECT_EQ(report.unrepairable, 0u);

  // The reload restored the checkpoint bytes exactly and lifted the
  // quarantine.
  EXPECT_EQ(StateFingerprint(fx.svc.get()), fx.expected);
  EXPECT_EQ(fx.svc->durability_counters().quarantined_shards, 0u);
  ASSERT_TRUE(
      fx.svc->Insert("call", {I(9), I(9), Dt("2016-01-02"), S("r2")}).ok());
}

TEST(ScrubTest, CorruptionOnBothSidesStaysQuarantinedAndTyped) {
  ShardOverrideGuard guard(1);
  ScrubFixture fx(41, "/scrubfs/both");

  fx.RotMemoryRow();
  ASSERT_TRUE(fx.env.FlipBit(fx.RowSegPath(), 24, 2).ok());

  durability::ScrubReport report;
  Status st = fx.svc->Scrub(&report);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_EQ(report.corruptions_found, 2u);
  EXPECT_EQ(report.repairs, 0u);
  EXPECT_EQ(report.unrepairable, 1u);
  EXPECT_EQ(fx.svc->durability_counters().quarantined_shards, 1u);

  // Durable writes to the quarantined shard refuse with the typed signal;
  // reads still serve.
  Status write = fx.svc->Insert("call", {I(9), I(9), Dt("2016-01-02"), S("r2")});
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.code(), StatusCode::kUnavailable) << write.ToString();
  auto resp = fx.svc->Query(
      {"SELECT call.region FROM call WHERE call.pnum = 2 AND "
       "call.date = '2016-01-01'",
       QueryMode::kBoundedOnly});
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();
}

TEST(ScrubTest, MaintenanceCycleRunsScrubAndAFailedScrubBlocksCheckpoint) {
  ShardOverrideGuard guard(1);
  ScrubFixture fx(43, "/scrubfs/cycle");

  // A clean cycle scrubs (the hook rides the quiesced maintenance
  // section) and reports nothing.
  uint64_t cycles0 = fx.svc->durability_counters().scrub_cycles_total;
  Status clean = fx.svc->RunAdjustmentCycle();
  EXPECT_TRUE(clean.ok()) << clean.ToString();
  EXPECT_EQ(fx.svc->durability_counters().scrub_cycles_total, cycles0 + 1);

  // The clean cycle may have adjusted constraint limits (a structural
  // write, which rightly suppresses the memory cross-check — rot is
  // indistinguishable from a legitimate write then). Checkpoint to settle
  // back into a clean baseline before injecting the rot.
  ASSERT_TRUE(fx.svc->Checkpoint().ok());

  // With both copies rotten the scrub hook fails the cycle — strictly
  // before the checkpoint hook, so the corrupt in-memory state never
  // overwrites the last good on-disk copy.
  fx.RotMemoryRow();
  ASSERT_TRUE(fx.env.FlipBit(fx.RowSegPath(2), 24, 2).ok());
  uint64_t checkpoints0 = fx.svc->durability_counters().checkpoints_total;
  Status rotten = fx.svc->RunAdjustmentCycle();
  ASSERT_FALSE(rotten.ok());
  EXPECT_EQ(rotten.code(), StatusCode::kCorruption) << rotten.ToString();
  EXPECT_EQ(fx.svc->durability_counters().checkpoints_total, checkpoints0);
}

}  // namespace
}  // namespace beas
