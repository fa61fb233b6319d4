// Randomized crash-consistency harness: drive a durable BeasService over
// a FaultInjectingEnv, power-cut it at hundreds of uniformly random byte
// offsets into the workload's append stream, "reboot" from the latched
// crash image, and assert the recovered state fingerprint equals an
// acked prefix of the workload. The script uses only single-record
// atomic operations, so the exact invariant is: a cut during operation c
// recovers to the state after c-1 ops (the record was torn away) or
// after c ops (its sectors all survived) — never anything in between,
// never a lost earlier ack, never a corrupt in-between state. Checkpoint
// ops ride the same stream, so cuts also land inside segment writes, the
// manifest rename, and WAL rotation.
//
// The sweep runs once under a fixed seed (deterministic CI) and once
// under a fresh seed printed for replay (BEAS_CRASH_SEED overrides both).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "service/beas_service.h"
#include "support/test_env.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::Dt;
using testing_util::I;
using testing_util::S;
using testing_util::ShardOverrideGuard;

Schema CallSchema() {
  return Schema({{"pnum", TypeId::kInt64},
                 {"recnum", TypeId::kInt64},
                 {"date", TypeId::kDate},
                 {"region", TypeId::kString}});
}

/// The fake filesystem lives entirely inside the env; the path is just a
/// key namespace.
constexpr const char* kDataDir = "/crashfs/data";

std::unique_ptr<BeasService> MakeService(const std::string& data_dir,
                                         Env* env) {
  ServiceOptions options;
  options.num_workers = 1;
  if (!data_dir.empty()) {
    options.durability.dir = data_dir;
    options.durability.env = env;
  }
  return std::make_unique<BeasService>(options);
}

/// Everything recovery must restore, rendered deterministically (same
/// shape as the durability/failpoint suites): heap slots with liveness,
/// dictionary, AC-index buckets, and a bounded query through the index.
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

/// One scripted operation. `is_reference` runs it against the in-memory
/// reference service, where durable-only ops (Checkpoint) are no-ops.
using CrashOp = std::function<Status(BeasService*, bool is_reference)>;

CrashOp Dml(std::function<Status(BeasService*)> f) {
  return [f = std::move(f)](BeasService* svc, bool) { return f(svc); };
}

/// The workload: DDL, a spread of inserts (several dictionary strings,
/// both dates, every shard for the swept shard counts), a constraint
/// registration, deletes, and two checkpoints — so random cuts land in
/// meta-WAL records, shard-WAL records of every shard, segment writes,
/// the manifest rename, and WAL rotation. Single-record ops only: that
/// is what makes {ref[c-1], ref[c]} the exact recovery contract.
std::vector<CrashOp> BuildCrashScript() {
  std::vector<CrashOp> ops;
  ops.push_back(Dml([](BeasService* s) {
    return s->CreateTable("call", CallSchema()).status();
  }));
  auto insert = [](int64_t i) {
    return Dml([i](BeasService* s) {
      return s->Insert("call",
                       {I(i % 5), I(i),
                        Dt(i % 2 == 0 ? "2016-01-01" : "2016-01-02"),
                        S("region-" + std::to_string(i % 3))});
    });
  };
  for (int64_t i = 1; i <= 6; ++i) ops.push_back(insert(i));
  ops.push_back(Dml([](BeasService* s) {
    return s->RegisterConstraint(
        {"psi1", "call", {"pnum", "date"}, {"recnum", "region"}, 500});
  }));
  ops.push_back([](BeasService* s, bool is_reference) {
    return is_reference ? Status::OK() : s->Checkpoint();
  });
  for (int64_t i = 7; i <= 10; ++i) ops.push_back(insert(i));
  ops.push_back(Dml([](BeasService* s) {
    return s->Delete("call",
                     {I(3), I(3), Dt("2016-01-02"), S("region-0")});
  }));
  ops.push_back([](BeasService* s, bool is_reference) {
    return is_reference ? Status::OK() : s->Checkpoint();
  });
  for (int64_t i = 11; i <= 14; ++i) ops.push_back(insert(i));
  return ops;
}

/// ref[k] = fingerprint after the first k ops against an in-memory
/// service (the durability layer must be invisible to state).
std::vector<std::string> ReferenceTimeline(const std::vector<CrashOp>& ops) {
  std::unique_ptr<BeasService> ref = MakeService("", nullptr);
  std::vector<std::string> timeline;
  timeline.push_back(StateFingerprint(ref.get()));
  for (size_t i = 0; i < ops.size(); ++i) {
    Status st = ops[i](ref.get(), /*is_reference=*/true);
    EXPECT_TRUE(st.ok()) << "reference op " << i << ": " << st.ToString();
    timeline.push_back(StateFingerprint(ref.get()));
  }
  return timeline;
}

/// Total bytes the script appends through the env — the cut-threshold
/// domain. The workload is deterministic, so one dry run suffices.
uint64_t TotalScriptBytes(const std::vector<CrashOp>& ops) {
  FaultInjectingEnv env(/*seed=*/1);
  {
    std::unique_ptr<BeasService> svc = MakeService(kDataDir, &env);
    EXPECT_TRUE(svc->durable()) << svc->durability_status().ToString();
    for (size_t i = 0; i < ops.size(); ++i) {
      Status st = ops[i](svc.get(), /*is_reference=*/false);
      EXPECT_TRUE(st.ok()) << "dry-run op " << i << ": " << st.ToString();
    }
  }
  return env.bytes_appended();
}

/// One power-cut trial: run the script, note which op the cut landed in,
/// reboot from the crash image, recover, compare fingerprints.
void RunTrial(uint64_t seed, uint64_t cut_bytes,
              const std::vector<CrashOp>& ops,
              const std::vector<std::string>& ref) {
  FaultInjectingEnv env(seed);
  env.ScheduleCutAfterBytes(cut_bytes);
  size_t cut_op = ops.size();
  {
    std::unique_ptr<BeasService> svc = MakeService(kDataDir, &env);
    ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
    for (size_t i = 0; i < ops.size(); ++i) {
      Status st = ops[i](svc.get(), /*is_reference=*/false);
      ASSERT_TRUE(st.ok()) << "op " << i << ": " << st.ToString();
      if (cut_op == ops.size() && env.CutTriggered()) cut_op = i;
    }
  }  // joins the drainers and drops every file handle
  ASSERT_TRUE(env.CutTriggered()) << "cut at " << cut_bytes << " never fired";
  ASSERT_LT(cut_op, ops.size());
  env.InstallCrashImage();

  std::unique_ptr<BeasService> recovered = MakeService(kDataDir, &env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  std::string got = StateFingerprint(recovered.get());
  // Every op before cut_op was acked (fsynced) before the image latched;
  // op cut_op itself is the only one allowed to be present or absent.
  EXPECT_TRUE(got == ref[cut_op] || got == ref[cut_op + 1])
      << "cut during op " << cut_op << " recovered to neither the state "
      << "before it nor after it.\nrecovered:\n" << got
      << "\nexpected (before):\n" << ref[cut_op]
      << "\nexpected (after):\n" << ref[cut_op + 1];
}

uint64_t SeedFromEnvOr(uint64_t fallback) {
  const char* override_seed = std::getenv("BEAS_CRASH_SEED");
  if (override_seed != nullptr && *override_seed != '\0') {
    return std::strtoull(override_seed, nullptr, 0);
  }
  return fallback;
}

void RunCrashSweep(uint64_t master_seed, int trials_per_config) {
  const std::vector<CrashOp> ops = BuildCrashScript();
  for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
    ShardOverrideGuard guard(shards);
    const std::vector<std::string> ref = ReferenceTimeline(ops);
    ASSERT_EQ(ref.size(), ops.size() + 1);
    const uint64_t total = TotalScriptBytes(ops);
    ASSERT_GT(total, 1u);
    if (::testing::Test::HasFailure()) return;  // reference itself broke

    Rng rng(master_seed ^ (0x9E3779B97F4A7C15ull * shards));
    for (int trial = 0; trial < trials_per_config; ++trial) {
      const uint64_t cut = static_cast<uint64_t>(
          rng.Uniform(1, static_cast<int64_t>(total)));
      SCOPED_TRACE("shards=" + std::to_string(shards) + " trial=" +
                   std::to_string(trial) + " cut_bytes=" +
                   std::to_string(cut) + " seed=" +
                   std::to_string(master_seed));
      RunTrial(master_seed + 1000003ull * trial + shards, cut, ops, ref);
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasFailure()) {
        return;  // one diagnosed trial beats hundreds of cascades
      }
    }
  }
}

TEST(CrashConsistencyTest, FixedSeedSweepRecoversAnAckedPrefix) {
  RunCrashSweep(SeedFromEnvOr(0xBEA5000Dull), /*trials_per_config=*/200);
}

TEST(CrashConsistencyTest, FreshSeedSweepRecoversAnAckedPrefix) {
  const uint64_t seed = SeedFromEnvOr(static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count()));
  // Printed so a CI failure is replayable: BEAS_CRASH_SEED=<seed>.
  std::cout << "[crash-consistency] fresh seed = " << seed
            << " (replay with BEAS_CRASH_SEED=" << seed << ")" << std::endl;
  RunCrashSweep(seed, /*trials_per_config=*/25);
}

// ---------------------------------------------------------------------------
// FaultInjectingEnv call faults: the primitive the fault and kill-point
// suites are built on.
// ---------------------------------------------------------------------------

using FaultOp = FaultInjectingEnv::FaultOp;
using Fault = FaultInjectingEnv::Fault;
using TearPolicy = FaultInjectingEnv::TearPolicy;

/// Whole contents of `path`, or "<absent>".
std::string ReadAll(FaultInjectingEnv* env, const std::string& path) {
  if (!env->FileExists(path)) return "<absent>";
  auto view = env->NewRandomAccessFile(path);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  if (!view.ok()) return "<unreadable>";
  return std::string((*view)->data(), (*view)->size());
}

/// Calls `op` once on the file /dir/f (or the directory /dir), keeping
/// the file in place across calls. Returns the call's status.
Status CallOnce(FaultInjectingEnv* env, FaultOp op) {
  auto open = env->NewWritableFile("/dir/f");
  if (op == FaultOp::kNewWritableFile || !open.ok()) return open.status();
  WritableFile& file = **open;
  switch (op) {
    case FaultOp::kAppend:
      return file.Append("x", 1);
    case FaultOp::kSync:
      return file.Sync();
    case FaultOp::kTruncate:
      return file.Truncate(0);
    case FaultOp::kRenameFile: {
      Status st = env->RenameFile("/dir/f", "/dir/g");
      if (!st.ok()) return st;
      return env->RenameFile("/dir/g", "/dir/f");  // the second call
    }
    case FaultOp::kSyncDir:
      return env->SyncDir("/dir");
    case FaultOp::kNewWritableFile:
      break;
  }
  return Status::OK();
}

TEST(FaultInjectingEnvTest, EachOpFailsOnExactlyItsNthCallOrOnEveryCall) {
  const FaultOp kOps[] = {FaultOp::kAppend,          FaultOp::kSync,
                          FaultOp::kTruncate,        FaultOp::kNewWritableFile,
                          FaultOp::kRenameFile,      FaultOp::kSyncDir};
  for (FaultOp op : kOps) {
    SCOPED_TRACE("op " + std::to_string(static_cast<int>(op)));
    FaultInjectingEnv env(3);
    ASSERT_TRUE(env.CreateDir("/dir").ok());
    // A rename is two matching calls per CallOnce (there and back), so
    // the 5th matching call is the first half of the 3rd CallOnce.
    const uint64_t nth = op == FaultOp::kRenameFile ? 5 : 3;
    env.ArmFault(op, "/dir", Fault::kFail, nth);
    for (int call = 1; call <= 5; ++call) {
      Status st = CallOnce(&env, op);
      if (call == 3) {
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code(), StatusCode::kIoError);
        EXPECT_NE(st.message().find("injected"), std::string::npos);
      } else {
        EXPECT_TRUE(st.ok()) << "call " << call << ": " << st.ToString();
      }
    }
    EXPECT_EQ(env.injected_faults(), 1u);

    env.ClearFaults();
    env.ArmFault(op, "/dir", Fault::kFail, FaultInjectingEnv::kEveryCall);
    for (int call = 1; call <= 4; ++call) {
      EXPECT_FALSE(CallOnce(&env, op).ok()) << "call " << call;
    }
    EXPECT_EQ(env.injected_faults(), 5u);
    env.ClearFaults();
    EXPECT_TRUE(CallOnce(&env, op).ok());
  }
}

TEST(FaultInjectingEnvTest, PathFilterHolds) {
  FaultInjectingEnv env(4);
  ASSERT_TRUE(env.CreateDir("/d").ok());
  env.ArmFault(FaultOp::kAppend, "/d/wal", Fault::kFail,
               FaultInjectingEnv::kEveryCall);
  auto wal = env.NewWritableFile("/d/wal_0");
  auto seg = env.NewWritableFile("/d/seg_0");
  ASSERT_TRUE(wal.ok() && seg.ok());
  EXPECT_FALSE((*wal)->Append("a", 1).ok());
  EXPECT_TRUE((*seg)->Append("a", 1).ok());
  EXPECT_EQ(ReadAll(&env, "/d/wal_0"), "");
  EXPECT_EQ(ReadAll(&env, "/d/seg_0"), "a");
  // Only the armed op is faulted on a matching path.
  EXPECT_TRUE((*wal)->Sync().ok());

  // A rename matches on its source or its target.
  env.ArmFault(FaultOp::kRenameFile, "prev", Fault::kFail,
               FaultInjectingEnv::kEveryCall);
  EXPECT_FALSE(env.RenameFile("/d/seg_0", "/d/prev_0").ok());
  EXPECT_TRUE(env.RenameFile("/d/seg_0", "/d/seg_1").ok());
  EXPECT_EQ(env.injected_faults(), 2u);
}

TEST(FaultInjectingEnvTest, NoSpaceFaultIsDiskFullShapedAndTypedByCheckpoint) {
  FaultInjectingEnv env(5);
  ASSERT_TRUE(env.CreateDir("/d").ok());
  env.ArmFault(FaultOp::kAppend, "/d/f", Fault::kFailNoSpace);
  auto file = env.NewWritableFile("/d/f");
  ASSERT_TRUE(file.ok());
  Status st = (*file)->Append("a", 1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("No space left on device"), std::string::npos)
      << st.ToString();

  // The durability layer recognises the shape: a checkpoint whose segment
  // write hits it aborts with the typed capacity verdict.
  ShardOverrideGuard guard(1);
  std::unique_ptr<BeasService> svc = MakeService(kDataDir, &env);
  ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
  ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
  ASSERT_TRUE(
      svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r1")}).ok());
  env.ArmFault(FaultOp::kAppend, "/seg/ck", Fault::kFailNoSpace);
  Status checkpoint = svc->Checkpoint();
  EXPECT_EQ(checkpoint.code(), StatusCode::kResourceExhausted)
      << checkpoint.ToString();
}

TEST(FaultInjectingEnvTest, PersistThenFailSyncLeavesItsBytesInACrashImage) {
  for (Fault fault : {Fault::kFailAfterEffect, Fault::kFail}) {
    const bool persisted = fault == Fault::kFailAfterEffect;
    SCOPED_TRACE(persisted ? "persist, then fail" : "fail");
    FaultInjectingEnv env(6);
    ASSERT_TRUE(env.CreateDir("/d").ok());
    auto file = env.NewWritableFile("/d/f");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(env.SyncDir("/d").ok());
    ASSERT_TRUE(env.SyncDir("/").ok());
    ASSERT_TRUE((*file)->Append("abc", 3).ok());
    env.ArmFault(FaultOp::kSync, "/d/f", fault);
    EXPECT_FALSE((*file)->Sync().ok());
    EXPECT_EQ(env.injected_faults(), 1u);
    env.CutNow(TearPolicy::kDropAll);
    env.InstallCrashImage();
    EXPECT_EQ(ReadAll(&env, "/d/f"), persisted ? "abc" : "");
  }
}

TEST(FaultInjectingEnvTest, KeepAllCutKeepsUnsyncedCreatesAndRenames) {
  for (Fault cut : {Fault::kCutBefore, Fault::kCutAfter}) {
    const bool after = cut == Fault::kCutAfter;
    SCOPED_TRACE(after ? "cut after" : "cut before");
    FaultInjectingEnv env(7);
    // Nothing below is ever synced: not the directory, not a file, not
    // a directory entry.
    ASSERT_TRUE(env.CreateDir("/d").ok());
    auto a = env.NewWritableFile("/d/a");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE((*a)->Append("x", 1).ok());
    auto b = env.NewWritableFile("/d/b");
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE((*b)->Append("y", 1).ok());
    ASSERT_TRUE(env.RenameFile("/d/b", "/d/c").ok());
    auto trigger = env.NewWritableFile("/d/trigger");
    ASSERT_TRUE(trigger.ok());

    env.ArmFault(FaultOp::kAppend, "/d/trigger", cut);
    ASSERT_TRUE((*trigger)->Append("t", 1).ok());
    EXPECT_TRUE(env.CutTriggered());
    EXPECT_EQ(env.injected_faults(), 1u);
    // Changes after the cut are not in the image.
    ASSERT_TRUE(env.RemoveFile("/d/a").ok());

    env.InstallCrashImage();
    EXPECT_TRUE(env.IsDirectory("/d"));
    EXPECT_EQ(ReadAll(&env, "/d/a"), "x");
    EXPECT_EQ(ReadAll(&env, "/d/b"), "<absent>");
    EXPECT_EQ(ReadAll(&env, "/d/c"), "y");
    EXPECT_EQ(ReadAll(&env, "/d/trigger"), after ? "t" : "");
  }
}

}  // namespace
}  // namespace beas
