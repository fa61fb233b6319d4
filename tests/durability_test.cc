// Durability subsystem tests: serde and WAL/segment framing round-trips,
// torn-tail repair, clean restart recovery, the kill-point sweep (a
// process kill at each I/O call of interest in the protocol, cut through
// FaultInjectingEnv at 1/3/8 storage shards, asserting the recovered
// state is bit-identical to the acked-committed prefix), and one
// real-process SIGKILL smoke on the posix filesystem.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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
using testing_util::InsertRow;
using testing_util::N;
using testing_util::S;
using testing_util::ShardOverrideGuard;
using testing_util::ToHex;
using FaultOp = FaultInjectingEnv::FaultOp;
using Fault = FaultInjectingEnv::Fault;

/// RAII scratch directory under TMPDIR (CI points this at a tmpfs).
struct TempDir {
  std::string path;

  TempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/beas_durability_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }
  ~TempDir() {
    if (!path.empty()) Env::Default()->RemoveAll(path);
  }
};

// ---------------------------------------------------------------------------
// Serde round-trips.
// ---------------------------------------------------------------------------

TEST(DurabilitySerdeTest, ValueRoundTripAllTypes) {
  std::string nul_bytes("a\0b\0", 4);
  std::vector<Value> values = {
      Value::Null(),       I(0),      I(-7),          I(INT64_MAX),
      Value::Double(1.5),  Value::Double(-0.0),       S(""),
      S("hello"),          S(nul_bytes),              Dt("2016-03-15"),
  };
  ByteSink sink;
  for (const Value& v : values) WriteValue(&sink, v);
  ByteReader r(sink.str().data(), sink.size());
  for (const Value& v : values) {
    Value got = ReadValue(&r);
    ASSERT_TRUE(r.ok()) << v.ToString();
    EXPECT_TRUE(got.Equals(v)) << v.ToString();
    EXPECT_EQ(got.type(), v.type());
  }
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

/// One row over all five value types; `dict` backs its string cell and
/// must outlive it.
Row PinnedRow(StringDict* dict) {
  return {N(), I(-5), Value::Double(2.75),
          Value::DictString(dict, dict->Intern("cell")), Dt("2016-03-15")};
}

// Format pins: round trips cannot catch a symmetric encoder/decoder change.
TEST(DurabilitySerdeTest, RowAndWalRecordBytesArePinned) {
  StringDict dict;
  ByteSink row;
  WriteRow(&row, PinnedRow(&dict));
  const char* kRowHex =
      "05000000"                     // arity (u32)
      "00"                           // null
      "01" "fbffffffffffffff"        // int64
      "02" "0000000000000640"        // double
      "03" "04000000" "63656c6c"     // dict string, as its bytes
      "04" "3b9f330100000000";       // date
  EXPECT_EQ(ToHex(row.str()), kRowHex);

  ByteSink payload;
  payload.PutString("call");
  WriteRow(&payload, PinnedRow(&dict));
  durability::WalRecord record;
  record.lsn = 42;
  record.type = durability::WalRecordType::kInsert;
  record.payload = payload.Take();
  ByteSink wal;
  durability::EncodeWalRecord(&wal, record);
  EXPECT_EQ(ToHex(wal.str()), std::string("3a000000"            // len
                                           "d493c9d7"            // crc
                                           "2a00000000000000"    // lsn
                                           "01"                  // type
                                           "04000000" "63616c6c"  // table
                                           ) + kRowHex);
}

// The index segment payload: the constraint, then each bucket as its key
// row, its Y count and (Y row, multiplicity) pairs. One key with INT, DATE
// and dictionary-STRING parts; Y-values with a NULL, a DOUBLE and a
// multiplicity above 1.
TEST(DurabilitySerdeTest, IndexSegmentBytesArePinned) {
  TableHeap heap(Schema({{"k", TypeId::kInt64},
                         {"d", TypeId::kDate},
                         {"s", TypeId::kString},
                         {"y", TypeId::kDouble},
                         {"n", TypeId::kInt64}}));
  InsertRow(&heap,
            {I(7), Dt("2016-03-15"), S("ab"), Value::Double(2.5), N()});
  InsertRow(&heap,
            {I(7), Dt("2016-03-15"), S("ab"), Value::Double(2.5), N()});
  InsertRow(&heap, {I(7), Dt("2016-03-15"), S("ab"), N(), I(3)});
  auto index = AcIndex::Build({"psi", "t", {"k", "d", "s"}, {"y", "n"}, 4},
                              heap);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const char* kIndexHex =
      "03000000" "707369"                        // name
      "01000000" "74"                            // table
      "03000000"                                 // |X|
      "01000000" "6b" "01000000" "64" "01000000" "73"
      "02000000"                                 // |Y|
      "01000000" "79" "01000000" "6e"
      "0400000000000000"                         // limit N
      "0100000000000000"                         // buckets
      "03000000"                                 // key arity
      "01" "0700000000000000"                    // int64
      "04" "3b9f330100000000"                    // date
      "03" "02000000" "6162"                     // dict string, as bytes
      "02000000"                                 // distinct Y
      "02000000" "02" "0000000000000440" "00"    // (2.5, NULL)
      "0200000000000000"                         // multiplicity 2
      "02000000" "00" "01" "0300000000000000"    // (NULL, 3)
      "0100000000000000";                        // multiplicity 1
  EXPECT_EQ(ToHex(durability::BuildIndexPayload(**index)), kIndexHex);
}

// The shard-rows segment payload: the shard's slot count, then per slot
// its live flag and its row. One shard (every row shares the shard key)
// holding a tombstoned slot, a NULL, INT, DOUBLE (-0.0 keeps its sign
// bit), DATE and dictionary-STRING values.
TEST(DurabilitySerdeTest, ShardRowsSegmentBytesArePinned) {
  TableHeap heap(Schema({{"k", TypeId::kInt64},
                         {"d", TypeId::kDate},
                         {"s", TypeId::kString},
                         {"y", TypeId::kDouble}}));
  heap.DeclareShardKey(0);
  InsertRow(&heap, {I(7), Dt("2016-03-15"), S("ab"), Value::Double(2.5)});
  SlotId dead = InsertRow(&heap, {I(7), Dt("2016-03-16"), S("cd"), N()});
  InsertRow(&heap, {I(7), N(), S("ab"), Value::Double(-0.0)});
  ASSERT_TRUE(heap.Delete(dead).ok());
  size_t shard = heap.DirectorySlot(0).first;
  for (SlotId slot = 1; slot < heap.NumSlots(); ++slot) {
    ASSERT_EQ(heap.DirectorySlot(slot).first, shard);
  }
  const char* kShardHex =
      "0300000000000000"                              // slots
      "01" "04000000"                                 // live, arity
      "01" "0700000000000000" "04" "3b9f330100000000"
      "03" "02000000" "6162" "02" "0000000000000440"  // 'ab', 2.5
      "00" "04000000"                                 // dead, arity
      "01" "0700000000000000" "04" "3c9f330100000000"
      "03" "02000000" "6364" "00"                     // 'cd', NULL
      "01" "04000000"                                 // live, arity
      "01" "0700000000000000" "00"                    // NULL date
      "03" "02000000" "6162" "02" "0000000000000080"; // 'ab', -0.0
  EXPECT_EQ(ToHex(durability::BuildShardRowsPayload(heap, shard)), kShardHex);
}

TEST(DurabilitySerdeTest, RowSchemaConstraintRoundTrip) {
  Row row = {I(7), S("x"), N(), Value::Double(2.25)};
  Schema schema({{"pnum", TypeId::kInt64},
                 {"name", TypeId::kString},
                 {"when", TypeId::kDate}});
  AccessConstraint c{"psi1", "call", {"pnum", "date"}, {"recnum"}, 500};

  ByteSink sink;
  WriteRow(&sink, row);
  durability::WriteSchema(&sink, schema);
  durability::WriteConstraint(&sink, c);

  ByteReader r(sink.str().data(), sink.size());
  auto row2 = ReadRow(&r);
  auto schema2 = durability::ReadSchema(&r);
  auto c2 = durability::ReadConstraint(&r);
  ASSERT_TRUE(row2.ok());
  ASSERT_TRUE(schema2.ok());
  ASSERT_TRUE(c2.ok());
  ASSERT_EQ(row2->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_TRUE((*row2)[i].Equals(row[i]));
  }
  EXPECT_EQ(*schema2, schema);
  EXPECT_EQ(c2->name, c.name);
  EXPECT_EQ(c2->table, c.table);
  EXPECT_EQ(c2->x_attrs, c.x_attrs);
  EXPECT_EQ(c2->y_attrs, c.y_attrs);
  EXPECT_EQ(c2->limit_n, c.limit_n);
  EXPECT_TRUE(r.AtEnd());
}

TEST(DurabilitySerdeTest, TruncatedBytesLatchNotOk) {
  ByteSink sink;
  WriteValue(&sink, S("hello world"));
  ByteReader r(sink.str().data(), sink.size() - 3);
  ReadValue(&r);
  EXPECT_FALSE(r.ok());
  // An unknown tag latches like a truncation.
  const char unknown_tag = 9;
  ByteReader bad(&unknown_tag, 1);
  ReadValue(&bad);
  EXPECT_FALSE(bad.ok());

  // Every proper prefix of a multi-type row fails, inside the bounds.
  StringDict dict;
  ByteSink row;
  WriteRow(&row, PinnedRow(&dict));
  for (size_t cut = 0; cut < row.size(); ++cut) {
    ByteReader prefix(row.str().data(), cut);
    auto decoded = ReadRow(&prefix);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kIoError) << cut;
  }
}

TEST(DurabilitySerdeTest, UnknownSchemaColumnTypeIsRejected) {
  ByteSink sink;
  sink.PutU32(1);
  sink.PutString("c");
  sink.PutU8(0x77);
  ByteReader r(sink.str().data(), sink.size());
  auto schema = durability::ReadSchema(&r);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kIoError);
}

// A version 1 table meta segment carries a dictionary flag, which is a
// function of the schema: every heap with a STRING column interns it. A
// flag that disagrees (for example 0 on a STRING schema, which no writer
// produces) is corruption. Version 2 drops the byte and derives the same
// answer from the schema. A shard count outside [1, kMaxStorageShards],
// which no heap has, is corruption in either version.
TEST(DurabilitySerdeTest, TableMetaDictFlagMustMatchTheSchema) {
  auto meta = [](const Schema& schema, uint32_t version, uint8_t dict_flag,
                 uint32_t shards = 1) {
    ByteSink sink;
    durability::WriteSchema(&sink, schema);
    if (version == 1) sink.PutU8(dict_flag);
    sink.PutU32(shards);
    sink.PutI64(-1);  // shard key column
    sink.PutU64(0);   // slots
    return durability::ParseTableMetaPayload(
        ByteReader(sink.str().data(), sink.size()), version);
  };
  Schema strings({{"k", TypeId::kInt64}, {"v", TypeId::kString}});
  Schema numeric({{"k", TypeId::kInt64}, {"d", TypeId::kDouble}});

  auto with_dict = meta(strings, 1, 1);
  ASSERT_TRUE(with_dict.ok()) << with_dict.status().ToString();
  EXPECT_TRUE(with_dict->has_dict);
  auto without_dict = meta(numeric, 1, 0);
  ASSERT_TRUE(without_dict.ok()) << without_dict.status().ToString();
  EXPECT_FALSE(without_dict->has_dict);

  for (const auto& [schema, flag] :
       {std::pair<Schema, uint8_t>{strings, 0}, {numeric, 1}, {strings, 2}}) {
    auto bad = meta(schema, 1, flag);
    ASSERT_FALSE(bad.ok()) << "flag " << static_cast<int>(flag);
    EXPECT_EQ(bad.status().code(), StatusCode::kCorruption)
        << bad.status().ToString();
  }

  auto v2_strings = meta(strings, 2, 0);
  ASSERT_TRUE(v2_strings.ok()) << v2_strings.status().ToString();
  EXPECT_TRUE(v2_strings->has_dict);
  EXPECT_EQ(v2_strings->num_shards, 1u);
  auto v2_numeric = meta(numeric, 2, 0);
  ASSERT_TRUE(v2_numeric.ok()) << v2_numeric.status().ToString();
  EXPECT_FALSE(v2_numeric->has_dict);

  for (uint32_t version : {1u, 2u}) {
    for (uint32_t shards : {0u, static_cast<uint32_t>(kMaxStorageShards + 1)}) {
      auto bad = meta(strings, version, 1, shards);
      ASSERT_FALSE(bad.ok()) << "version " << version << " shards " << shards;
      EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
    }
  }
}

// ---------------------------------------------------------------------------
// WAL framing: round-trip, torn tails, foreign files.
// ---------------------------------------------------------------------------

durability::WalRecord MakeRecord(uint64_t lsn, const std::string& payload) {
  durability::WalRecord rec;
  rec.lsn = lsn;
  rec.type = durability::WalRecordType::kInsert;
  rec.payload = payload;
  return rec;
}

TEST(DurabilityWalTest, RoundTripAndTornTailRepair) {
  TempDir tmp;
  std::string path = tmp.path + "/shard_0.wal";
  Env* env = Env::Default();
  ASSERT_TRUE(durability::InitWalFile(env, path).ok());

  ByteSink group;
  durability::EncodeWalRecord(&group, MakeRecord(1, "alpha"));
  durability::EncodeWalRecord(&group, MakeRecord(2, "beta"));
  durability::EncodeWalRecord(&group, MakeRecord(3, std::string("\0x\0", 3)));
  auto opened = env->NewWritableFile(path);
  ASSERT_TRUE(opened.ok());
  WritableFile& file = **opened;
  ASSERT_TRUE(file.Append(group.str().data(), group.size()).ok());

  auto read = durability::ReadWalFile(env, path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[0].payload, "alpha");
  EXPECT_EQ(read->records[2].payload, std::string("\0x\0", 3));
  EXPECT_EQ(read->valid_bytes, durability::kWalHeaderBytes + group.size());

  // A torn append: half a record of garbage. The valid prefix is
  // unchanged, and truncating to it makes the file clean again.
  const char garbage[] = "\x10\x00\x00\x00garbage";
  ASSERT_TRUE(file.Append(garbage, sizeof(garbage)).ok());
  auto torn = durability::ReadWalFile(env, path);
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->records.size(), 3u);
  EXPECT_EQ(torn->valid_bytes, read->valid_bytes);
  ASSERT_TRUE(file.Truncate(torn->valid_bytes).ok());
  auto repaired = durability::ReadWalFile(env, path);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->records.size(), 3u);
  EXPECT_EQ(repaired->valid_bytes,
            static_cast<uint64_t>(file.size()));
}

TEST(DurabilityWalTest, CorruptedRecordStopsTheParse) {
  TempDir tmp;
  std::string path = tmp.path + "/shard_0.wal";
  Env* env = Env::Default();
  ASSERT_TRUE(durability::InitWalFile(env, path).ok());
  ByteSink group;
  durability::EncodeWalRecord(&group, MakeRecord(1, "aaaa"));
  durability::EncodeWalRecord(&group, MakeRecord(2, "bbbb"));
  std::string bytes = group.Take();
  // Flip one payload byte of the second record (its CRC now mismatches).
  bytes[bytes.size() - 1] ^= 0x5A;
  auto file = env->NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(bytes.data(), bytes.size()).ok());

  auto read = durability::ReadWalFile(env, path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].payload, "aaaa");
}

TEST(DurabilityWalTest, MissingFileIsEmptyForeignMagicIsError) {
  TempDir tmp;
  Env* env = Env::Default();
  auto missing = durability::ReadWalFile(env, tmp.path + "/nope.wal");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());
  EXPECT_EQ(missing->valid_bytes, 0u);

  std::string foreign = tmp.path + "/foreign.wal";
  ASSERT_TRUE(env->WriteFileAtomic(foreign, "NOTAWALFILE!").ok());
  auto bad = durability::ReadWalFile(env, foreign);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Segment framing.
// ---------------------------------------------------------------------------

TEST(DurabilitySegmentTest, RoundTripValidatesKindAndCrc) {
  TempDir tmp;
  Env* env = Env::Default();
  std::string path = tmp.path + "/t.seg";
  std::string payload = "segment payload \x01\x02";
  uint32_t written_crc = 0;
  ASSERT_TRUE(durability::WriteSegmentFile(env, path,
                                           durability::SegmentKind::kDict,
                                           payload, &written_crc)
                  .ok());

  auto seg = durability::OpenSegment(env, path, durability::SegmentKind::kDict);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_EQ(std::string(seg->payload, seg->payload_len), payload);

  // Kind-agnostic verification reports the stored kind and CRC.
  uint32_t verified_crc = 0;
  auto kind = durability::VerifySegmentFile(env, path, &verified_crc);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, durability::SegmentKind::kDict);
  EXPECT_EQ(verified_crc, written_crc);

  // Wrong kind: refused, as typed corruption.
  auto wrong =
      durability::OpenSegment(env, path, durability::SegmentKind::kIndex);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kCorruption);

  // Flipped payload byte: CRC mismatch.
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string bytes = ss.str();
    bytes[bytes.size() - 1] ^= 0x5A;
    ASSERT_TRUE(env->WriteFileAtomic(path, bytes).ok());
  }
  auto flipped =
      durability::OpenSegment(env, path, durability::SegmentKind::kDict);
  ASSERT_FALSE(flipped.ok());
  EXPECT_EQ(flipped.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(durability::VerifySegmentFile(env, path).ok());
}

// ---------------------------------------------------------------------------
// The scripted workload shared by the restart and kill-point tests.
// ---------------------------------------------------------------------------

/// One scripted operation. `reference` marks ops with logical effects,
/// applied to the in-memory reference database too; checkpoint-only ops
/// change no queryable state.
struct ScriptOp {
  bool reference = true;
  std::function<Status(BeasService*)> run;
};

Schema CallSchema() {
  return Schema({{"pnum", TypeId::kInt64},
                 {"recnum", TypeId::kInt64},
                 {"date", TypeId::kDate},
                 {"region", TypeId::kString}});
}

/// Exercises every WAL record type that is still written: DDL, single
/// inserts, a large batch whose strings arrive out of byte order,
/// constraint registration, deletes, an explicit checkpoint, a
/// maintenance cycle (bound adjustments + hook-driven checkpoint), and
/// post-checkpoint writes that land in the WAL tail.
std::vector<ScriptOp> BuildOpScript() {
  std::vector<ScriptOp> ops;
  ops.push_back({true, [](BeasService* s) {
                   return s->CreateTable("call", CallSchema()).status();
                 }});
  ops.push_back({true, [](BeasService* s) {
                   return s
                       ->CreateTable("business",
                                     Schema({{"pnum", TypeId::kInt64},
                                             {"type", TypeId::kString}}))
                       .status();
                 }});
  for (int i = 0; i < 4; ++i) {
    ops.push_back({true, [i](BeasService* s) {
                     return s->Insert(
                         "call", {I(7 + i), I(100 + i), Dt("2016-03-15"),
                                  S(i % 2 == 0 ? "R1" : "R2")});
                   }});
  }
  ops.push_back({true, [](BeasService* s) {
                   return s->RegisterConstraint(
                       {"psi1", "call", {"pnum", "date"},
                        {"recnum", "region"}, 500});
                 }});
  // 70 distinct region strings interned in DESCENDING byte order: codes
  // run against byte order, and recovery must restore them exactly.
  ops.push_back({true, [](BeasService* s) {
                   std::vector<Row> rows;
                   for (int i = 69; i >= 0; --i) {
                     char name[16];
                     std::snprintf(name, sizeof(name), "z%03d", i);
                     rows.push_back(
                         {I(50 + i), I(500 + i), Dt("2016-04-01"), S(name)});
                   }
                   return s->InsertBatch("call", std::move(rows));
                 }});
  ops.push_back({true, [](BeasService* s) {
                   return s->Insert("business", {I(7), S("bank")});
                 }});
  ops.push_back({true, [](BeasService* s) {
                   return s->Delete(
                       "call", {I(8), I(101), Dt("2016-03-15"), S("R2")});
                 }});
  ops.push_back({false, [](BeasService* s) { return s->Checkpoint(); }});
  // Writes after the checkpoint: replayed from the WAL tail on recovery.
  ops.push_back({true, [](BeasService* s) {
                   return s->Insert(
                       "call", {I(11), I(111), Dt("2016-05-01"), S("R1")});
                 }});
  ops.push_back({true, [](BeasService* s) {
                   size_t changed = 0;
                   return s->RunAdjustmentCycle(1.2, &changed);
                 }});
  ops.push_back({true, [](BeasService* s) {
                   return s->Insert(
                       "call", {I(12), I(112), Dt("2016-05-02"), S("A0")});
                 }});
  return ops;
}

/// A deterministic rendering of everything durability promises to restore
/// bit-identically: every table's slot directory, live flags and rows (in
/// slot order — exact placement, not just content), the dictionary's full
/// code assignment, every AC index bucket, and the answers of a bounded
/// query.
std::string StateFingerprint(BeasService* svc) {
  std::ostringstream out;
  Database* db = svc->db();
  for (const std::string& name : db->catalog()->TableNames()) {
    auto info = db->catalog()->GetTable(name);
    if (!info.ok()) continue;
    const TableHeap& heap = *info.ValueOrDie()->heap();
    out << "table " << name << " schema " << heap.schema().ToString()
        << "\n";
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
    // Bucket visit order is key-arena order, which depends on the write
    // history — canonicalize it; the bucket-internal Y order above stays
    // as visited (it is part of the restored state).
    std::sort(buckets.begin(), buckets.end());
    for (const std::string& b : buckets) out << b << "\n";
  }
  // End-to-end: a bounded query through the AC index (errors — e.g. "no
  // constraint registered yet" prefixes — render deterministically too).
  auto resp = svc->Query(
      {"SELECT call.region FROM call WHERE call.pnum = 7 AND "
       "call.date = '2016-03-15'",
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

std::unique_ptr<BeasService> MakeService(const std::string& data_dir,
                                         Env* env = nullptr) {
  ServiceOptions options;
  options.num_workers = 1;
  if (!data_dir.empty()) {
    options.durability.dir = data_dir;
    options.durability.env = env;
    // Tiny threshold: the maintenance cycle's checkpoint hook fires too,
    // covering the MaybeCheckpoint path.
    options.durability.checkpoint_min_wal_bytes = 1;
  }
  return std::make_unique<BeasService>(options);
}

/// The in-memory reference state after ops[0..n).
std::string ReferenceFingerprint(const std::vector<ScriptOp>& ops, size_t n) {
  std::unique_ptr<BeasService> ref = MakeService("");
  for (size_t i = 0; i < n; ++i) {
    if (!ops[i].reference) continue;
    Status st = ops[i].run(ref.get());
    EXPECT_TRUE(st.ok()) << "reference op " << i << ": " << st.ToString();
  }
  return StateFingerprint(ref.get());
}

// ---------------------------------------------------------------------------
// Clean restart: stop the service, reopen the directory, compare.
// ---------------------------------------------------------------------------

TEST(DurabilityRecoveryTest, CleanRestartRestoresEverything) {
  for (size_t shards : {size_t{1}, size_t{3}}) {
    ShardOverrideGuard guard(shards);
    TempDir tmp;
    std::vector<ScriptOp> ops = BuildOpScript();
    {
      std::unique_ptr<BeasService> svc = MakeService(tmp.path + "/data");
      ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
      for (size_t i = 0; i < ops.size(); ++i) {
        Status st = ops[i].run(svc.get());
        ASSERT_TRUE(st.ok()) << "op " << i << ": " << st.ToString();
      }
    }
    std::unique_ptr<BeasService> recovered = MakeService(tmp.path + "/data");
    ASSERT_TRUE(recovered->durable())
        << recovered->durability_status().ToString();
    EXPECT_EQ(StateFingerprint(recovered.get()),
              ReferenceFingerprint(ops, ops.size()))
        << "shards=" << shards;

    // A checkpoint right before shutdown empties the WALs: the next
    // recovery restores from segments alone.
    ASSERT_TRUE(recovered->Checkpoint().ok());
    recovered.reset();
    std::unique_ptr<BeasService> again = MakeService(tmp.path + "/data");
    ASSERT_TRUE(again->durable());
    EXPECT_EQ(again->durability_counters().recovery_replayed_records, 0u);
    EXPECT_EQ(StateFingerprint(again.get()),
              ReferenceFingerprint(ops, ops.size()));
  }
}

// A restored index serializes its buckets in the order the checkpoint
// wrote them, so the first scrub after a restart matches every index
// against its checkpoint fingerprint instead of reporting a corruption.
TEST(DurabilityScrubTest, FirstScrubAfterRestartFindsNoCorruption) {
  for (size_t shards : {size_t{1}, size_t{3}}) {
    ShardOverrideGuard guard(shards);
    TempDir tmp;
    {
      std::unique_ptr<BeasService> svc = MakeService(tmp.path + "/data");
      ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
      ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
      // 130 rows: (region, pnum) pairs repeat from row 115 on, so psi2
      // has multiplicities above 1.
      std::vector<Row> rows;
      for (int i = 0; i < 130; ++i) {
        rows.push_back({I(i % 23), I(100 + i), Dt("2016-03-15"),
                        S("R" + std::to_string(i % 5))});
      }
      ASSERT_TRUE(svc->InsertBatch("call", std::move(rows)).ok());
      ASSERT_TRUE(svc->RegisterConstraint({"psi1", "call", {"pnum", "date"},
                                           {"recnum", "region"}, 500})
                      .ok());
      ASSERT_TRUE(svc->RegisterConstraint(
                         {"psi2", "call", {"region"}, {"pnum"}, 500})
                      .ok());
      ASSERT_TRUE(
          svc->Delete("call", {I(3), I(103), Dt("2016-03-15"), S("R3")}).ok());
      ASSERT_TRUE(svc->Checkpoint().ok());
    }
    std::unique_ptr<BeasService> svc = MakeService(tmp.path + "/data");
    ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
    EXPECT_EQ(svc->durability_counters().recovery_replayed_records, 0u);
    durability::ScrubReport report;
    Status scrubbed = svc->Scrub(&report);
    ASSERT_TRUE(scrubbed.ok()) << scrubbed.ToString();
    EXPECT_GT(report.segments_checked, 0u);
    EXPECT_EQ(report.corruptions_found, 0u) << "shards=" << shards;
    EXPECT_EQ(report.repairs, 0u) << "shards=" << shards;
  }
}

TEST(DurabilityRecoveryTest, RecoveryAcrossShardCountChange) {
  // Write at 3 shards, recover at 8, then at 1: the slot directory and
  // all answers must be preserved regardless of the lock-shard config.
  TempDir tmp;
  std::vector<ScriptOp> ops = BuildOpScript();
  {
    ShardOverrideGuard guard(3);
    std::unique_ptr<BeasService> svc = MakeService(tmp.path + "/data");
    ASSERT_TRUE(svc->durable());
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_TRUE(ops[i].run(svc.get()).ok()) << "op " << i;
    }
  }
  for (size_t shards : {size_t{8}, size_t{1}}) {
    ShardOverrideGuard guard(shards);
    std::unique_ptr<BeasService> recovered = MakeService(tmp.path + "/data");
    ASSERT_TRUE(recovered->durable())
        << recovered->durability_status().ToString();
    // The heap was built at 3 shards and its layout is part of the
    // restored state, so the reference must be built at 3 shards too.
    ShardOverrideGuard ref_guard(3);
    EXPECT_EQ(StateFingerprint(recovered.get()),
              ReferenceFingerprint(ops, ops.size()))
        << "recovered under shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Kill points: a process kill at one I/O call of the durable protocol.
// ---------------------------------------------------------------------------

/// True when the recovered fingerprint `got` is the state after the
/// acked prefix ops[0..acked) — or after one op more, since an op may
/// reach the disk without its ack (a kill between fsync and ack).
::testing::AssertionResult RecoveredAckedPrefix(
    const std::vector<ScriptOp>& ops, size_t acked, const std::string& got) {
  if (ReferenceFingerprint(ops, acked) == got) {
    return ::testing::AssertionSuccess();
  }
  if (acked < ops.size() && ReferenceFingerprint(ops, acked + 1) == got) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "recovered state matches no committed prefix (acked = " << acked
         << " of " << ops.size() << ")\n"
         << got;
}

/// A kill at the `nth` call (counted from after Open) of `op` on a path
/// containing `path_part`, just before or just after the call.
struct KillPoint {
  const char* where;
  FaultOp op;
  const char* path_part;
  Fault cut;
  uint64_t nth;
};

/// Runs the script over a FaultInjectingEnv with `kill` armed (none for
/// the control), lets it finish on the live env, then reboots from the
/// image the kill latched and checks the acked-prefix invariant.
void RunKillPointCase(const KillPoint* kill, size_t shards) {
  SCOPED_TRACE(std::string("kill at ") +
               (kill == nullptr ? "<none>" : kill->where) +
               " shards=" + std::to_string(shards));
  ShardOverrideGuard guard(shards);
  FaultInjectingEnv env(shards);
  const std::string data_dir = "/killfs/data";
  const std::vector<ScriptOp> ops = BuildOpScript();
  size_t acked = ops.size();  // ops acked before the kill
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
    ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
    if (kill != nullptr) {
      env.ArmFault(kill->op, kill->path_part, kill->cut, kill->nth);
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      Status st = ops[i].run(svc.get());
      ASSERT_TRUE(st.ok()) << "op " << i << ": " << st.ToString();
      if (acked == ops.size() && env.CutTriggered()) acked = i;
    }
  }
  if (kill == nullptr) {
    ASSERT_FALSE(env.CutTriggered());
    env.CutNow(FaultInjectingEnv::TearPolicy::kKeepAll);
  } else {
    ASSERT_TRUE(env.CutTriggered()) << "the kill point never fired";
    ASSERT_LT(acked, ops.size());
  }
  env.InstallCrashImage();

  std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_TRUE(RecoveredAckedPrefix(ops, acked, StateFingerprint(recovered.get())));
}

TEST(DurabilityKillPointTest, RecoversCommittedPrefixAtEveryCrashSite) {
  const KillPoint kKills[] = {
      // The first group is written, not fsynced.
      {"first WAL append", FaultOp::kAppend, "/wal/shard_", Fault::kCutAfter,
       1},
      // About to fsync the first group.
      {"first WAL fsync", FaultOp::kSync, "/wal/shard_", Fault::kCutBefore, 1},
      // The first group is durable but neither applied nor acked.
      {"after first WAL fsync", FaultOp::kSync, "/wal/shard_",
       Fault::kCutAfter, 1},
      // A later group: post-DDL, mid-stream.
      {"fourth WAL append", FaultOp::kAppend, "/wal/shard_", Fault::kCutAfter,
       4},
      // Segments written and seg/ synced (the 1st matching SyncDir is
      // ck<N>/ itself), manifest not committed.
      {"seg/ fsync", FaultOp::kSyncDir, "/seg", Fault::kCutAfter, 2},
      // Manifest committed, WAL rotation under way.
      {"first WAL rotation rename", FaultOp::kRenameFile, "/wal/",
       Fault::kCutAfter, 1},
  };
  for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
    RunKillPointCase(nullptr, shards);  // control: full recovery
    if (testing::Test::HasFatalFailure()) return;
    for (const KillPoint& kill : kKills) {
      RunKillPointCase(&kill, shards);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Number of acked ops in `ack_path`, validating the contiguous-prefix
/// invariant (ops run sequentially; an ack without its predecessors would
/// mean the harness itself is broken).
size_t CountAckedPrefix(const std::string& ack_path) {
  std::ifstream in(ack_path);
  size_t expect = 0;
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_EQ(line, std::to_string(expect));
    ++expect;
  }
  return expect;
}

/// Forked child: runs the script against a durable service on the posix
/// Env, appending each op's index to `ack_path` after it acks, then waits
/// to be killed. Returns (as exit code) only on a failure, or when no
/// kill comes (so an orphan cannot linger).
int RunKilledChild(const std::string& data_dir, const std::string& ack_path) {
  int ack_fd = ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0) return 3;
  std::unique_ptr<BeasService> svc = MakeService(data_dir);
  if (!svc->durable()) return 4;
  std::vector<ScriptOp> ops = BuildOpScript();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].run(svc.get()).ok()) return 5;
    char line[32];
    int len = std::snprintf(line, sizeof(line), "%zu\n", i);
    if (::write(ack_fd, line, len) != len) return 6;
  }
  ::sleep(300);
  return 7;
}

// The real-process half of the kill sweep: SIGKILL a child process once
// it has acked K ops (the kill lands wherever the child has got to by
// then, checkpoints included), recover its directory in this process and
// check the acked-prefix invariant.
TEST(DurabilityKillSmokeTest, SigkilledProcessRecoversAnAckedPrefix) {
  const std::vector<ScriptOp> ops = BuildOpScript();
  // The script's checkpoint is op 10; the maintenance cycle (op 12)
  // checkpoints again.
  for (size_t kill_after : {size_t{2}, size_t{7}, size_t{10}, size_t{12}}) {
    SCOPED_TRACE("kill after " + std::to_string(kill_after) + " acks");
    TempDir tmp;
    const std::string data_dir = tmp.path + "/data";
    const std::string ack_path = tmp.path + "/acks";

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) _exit(RunKilledChild(data_dir, ack_path));

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    int status = 0;
    bool exited = false;
    auto acks_so_far = [&] {
      std::ifstream in(ack_path);
      return static_cast<size_t>(
          std::count(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>(), '\n'));
    };
    while (acks_so_far() < kill_after &&
           std::chrono::steady_clock::now() < deadline) {
      if (waitpid(pid, &status, WNOHANG) == pid) {
        exited = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!exited) {
      ::kill(pid, SIGKILL);
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
    }
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the child failed on its own (exit "
        << (WIFEXITED(status) ? WEXITSTATUS(status) : -1) << ")";

    const size_t acked = CountAckedPrefix(ack_path);
    ASSERT_GE(acked, kill_after);
    std::unique_ptr<BeasService> recovered = MakeService(data_dir);
    ASSERT_TRUE(recovered->durable())
        << recovered->durability_status().ToString();
    EXPECT_TRUE(
        RecoveredAckedPrefix(ops, acked, StateFingerprint(recovered.get())));
  }
}

// ---------------------------------------------------------------------------
// Group-commit IO failure: retry, truncate-repair and shard latching.
// ---------------------------------------------------------------------------

constexpr const char* kShardWal = "/wal/shard_";

std::vector<int64_t> LivePnums(BeasService* svc) {
  auto info = svc->db()->catalog()->GetTable("call");
  EXPECT_TRUE(info.ok());
  std::vector<int64_t> pnums;
  if (!info.ok()) return pnums;
  const TableHeap& heap = *info.ValueOrDie()->heap();
  for (size_t slot = 0; slot < heap.NumSlots(); ++slot) {
    auto [shard, local] = heap.DirectorySlot(slot);
    if (!heap.ShardRowLive(shard, local)) continue;
    pnums.push_back(heap.Decode(heap.ShardCellsAt(shard, local), 0).AsInt64());
  }
  std::sort(pnums.begin(), pnums.end());
  return pnums;
}

TEST(DurabilityFailureRepairTest, TransientGroupFailureIsRetriedAndAcked) {
  ShardOverrideGuard guard(1);  // one WAL shard: routing is deterministic
  FaultInjectingEnv env(5);
  const std::string data_dir = "/repairfs/data";
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
    ASSERT_TRUE(svc->durable());
    ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
    ASSERT_TRUE(
        svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r")}).ok());

    // The next group commit's fsync fails once, with its CRC-valid bytes
    // already in the file. The drainer must cut the failed bytes back,
    // re-append the same group and ack it: a transient fault costs a
    // retry, not a lost write.
    env.ArmFault(FaultOp::kSync, kShardWal, Fault::kFail);
    Status st = svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r")});
    EXPECT_TRUE(st.ok()) << st.ToString();
    env.ClearFaults();
    durability::DurabilityCounters counters = svc->durability_counters();
    EXPECT_GE(counters.wal_retries_total, 1u);
    EXPECT_EQ(counters.wal_latched_shards, 0u);
    ASSERT_TRUE(
        svc->Insert("call", {I(3), I(3), Dt("2016-01-01"), S("r")}).ok());
    EXPECT_EQ(LivePnums(svc.get()), (std::vector<int64_t>{1, 2, 3}));
  }
  // Recovery sees exactly the acked records, with the retried group
  // replayed once: the failed first attempt's bytes were truncated away,
  // not left to shadow or duplicate the re-appended group.
  std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(LivePnums(recovered.get()), (std::vector<int64_t>{1, 2, 3}));
}

TEST(DurabilityFailureRepairTest, PersistentFailureExhaustsRetriesAndLatches) {
  ShardOverrideGuard guard(1);
  FaultInjectingEnv env(6);
  const std::string data_dir = "/repairfs/data";
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
    ASSERT_TRUE(svc->durable());
    ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
    ASSERT_TRUE(
        svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r")}).ok());

    // Every append of the group fails while the repair succeeds: the
    // bounded retry loop must give up after the configured limit, latch
    // the shard, and surface the typed verdict.
    env.ArmFault(FaultOp::kAppend, kShardWal, Fault::kFail,
                 FaultInjectingEnv::kEveryCall);
    Status st = svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r")});
    env.ClearFaults();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
    durability::DurabilityCounters counters = svc->durability_counters();
    EXPECT_GE(counters.wal_retries_total, 3u);
    EXPECT_EQ(counters.wal_latched_shards, 1u);
    st = svc->Insert("call", {I(3), I(3), Dt("2016-01-01"), S("r")});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_NE(st.ToString().find("latched"), std::string::npos)
        << st.ToString();
  }
  // Everything acked before the latch recovers; nothing after it exists.
  std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(LivePnums(recovered.get()), (std::vector<int64_t>{1}));
}

TEST(DurabilityFailureRepairTest, UnrepairableFailureLatchesTheShard) {
  ShardOverrideGuard guard(1);
  FaultInjectingEnv env(7);
  const std::string data_dir = "/repairfs/data";
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
    ASSERT_TRUE(svc->durable());
    ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
    ASSERT_TRUE(
        svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r")}).ok());

    // Group commit fails AND the truncate-repair reports failure: no
    // retry is sound, because the file may now end in bytes the
    // accounting cannot vouch for. The shard must latch immediately, and
    // the group's writer learns its outcome is unknown (kIoError). (Here
    // the cut itself lands, so the group is gone at recovery.)
    env.ArmFault(FaultOp::kSync, kShardWal, Fault::kFail);
    env.ArmFault(FaultOp::kTruncate, kShardWal, Fault::kFailAfterEffect);
    Status st = svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r")});
    env.ClearFaults();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
    EXPECT_EQ(svc->durability_counters().wal_retries_total, 0u);
    st = svc->Insert("call", {I(3), I(3), Dt("2016-01-01"), S("r")});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
    EXPECT_NE(st.ToString().find("latched"), std::string::npos)
        << st.ToString();
  }
  // Everything acked before the latch recovers; nothing after it exists.
  std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  EXPECT_EQ(LivePnums(recovered.get()), (std::vector<int64_t>{1}));
}

// A repair that really fails (the truncate has no effect) leaves the
// group's CRC-valid bytes in the log, so a restart may replay them: the
// writer must hear "outcome unknown", never "refused".
TEST(DurabilityFailureRepairTest, FailedRepairReportsAnUnknownOutcome) {
  ShardOverrideGuard guard(1);
  FaultInjectingEnv env(7);
  const std::string data_dir = "/repairfs/data";
  {
    std::unique_ptr<BeasService> svc = MakeService(data_dir, &env);
    ASSERT_TRUE(svc->durable());
    ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
    ASSERT_TRUE(
        svc->Insert("call", {I(1), I(1), Dt("2016-01-01"), S("r")}).ok());
    env.ArmFault(FaultOp::kSync, kShardWal, Fault::kFail);
    env.ArmFault(FaultOp::kTruncate, kShardWal, Fault::kFail);
    Status st = svc->Insert("call", {I(2), I(2), Dt("2016-01-01"), S("r")});
    env.ClearFaults();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
    EXPECT_NE(st.ToString().find("may or may not survive"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(env.injected_faults(), 2u);
    // Later writes to the latched shard are refused, typed as before.
    st = svc->Insert("call", {I(3), I(3), Dt("2016-01-01"), S("r")});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
    EXPECT_NE(st.ToString().find("latched"), std::string::npos)
        << st.ToString();
  }
  std::unique_ptr<BeasService> recovered = MakeService(data_dir, &env);
  ASSERT_TRUE(recovered->durable())
      << recovered->durability_status().ToString();
  std::vector<int64_t> pnums = LivePnums(recovered.get());
  EXPECT_TRUE(pnums == (std::vector<int64_t>{1}) ||
              pnums == (std::vector<int64_t>{1, 2}))
      << ::testing::PrintToString(pnums);
}

// ---------------------------------------------------------------------------
// Durability counters.
// ---------------------------------------------------------------------------

TEST(DurabilityCountersTest, WalAndCheckpointCountersAdvance) {
  TempDir tmp;
  std::unique_ptr<BeasService> svc = MakeService(tmp.path + "/data");
  ASSERT_TRUE(svc->durable());
  ASSERT_TRUE(svc->CreateTable("call", CallSchema()).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        svc->Insert("call", {I(i), I(i), Dt("2016-01-01"), S("r")}).ok());
  }
  // Concurrent writers share group commits: every insert acks and the
  // table reads back exactly the acked rows, before and after recovery.
  constexpr int kWriters = 4;
  constexpr int kRowsPerWriter = 32;
  constexpr int64_t kRows = 8 + kWriters * kRowsPerWriter;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kRowsPerWriter; ++i) {
        int64_t pnum = 100 + w * kRowsPerWriter + i;
        Status st = svc->Insert("call", {I(pnum), I(i), Dt("2016-01-01"),
                                         S("w")});
        if (!st.ok()) ++failures;
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto count_rows = [](BeasService* s) {
    auto count = s->Query({"SELECT count(*) AS n FROM call"});
    EXPECT_TRUE(count.ok());
    return count.ok() && count->result.rows.size() == 1
               ? count->result.rows[0][0].AsInt64()
               : -1;
  };
  EXPECT_EQ(count_rows(svc.get()), kRows);
  durability::DurabilityCounters counters = svc->durability_counters();
  EXPECT_GE(counters.wal_records_total, static_cast<uint64_t>(kRows));
  EXPECT_GT(counters.wal_bytes_total, 0u);
  EXPECT_GE(counters.wal_group_commits_total, 1u);
  EXPECT_GE(counters.wal_fsyncs_total, counters.wal_group_commits_total);
  EXPECT_EQ(counters.checkpoints_total, 0u);

  ASSERT_TRUE(svc->Checkpoint().ok());
  EXPECT_EQ(svc->durability_counters().checkpoints_total, 1u);

  svc.reset();
  std::unique_ptr<BeasService> recovered = MakeService(tmp.path + "/data");
  ASSERT_TRUE(recovered->durable());
  // Checkpoint emptied the WALs: nothing to replay.
  EXPECT_EQ(recovered->durability_counters().recovery_replayed_records, 0u);
  EXPECT_EQ(count_rows(recovered.get()), kRows);
  ASSERT_TRUE(
      recovered->Insert("call", {I(99), I(99), Dt("2016-01-02"), S("r")})
          .ok());
  recovered.reset();
  std::unique_ptr<BeasService> replayed = MakeService(tmp.path + "/data");
  ASSERT_TRUE(replayed->durable());
  EXPECT_GE(replayed->durability_counters().recovery_replayed_records, 1u);
}

// ---------------------------------------------------------------------------
// Upgrade from the version 1 segment format.
// ---------------------------------------------------------------------------

// tests/data/v1_dict_rebuild was written, at 2 storage shards, by the last
// version whose dictionaries could be renumbered into byte order:
//  1. CREATE TABLE emp(id INT64, name STRING, dept STRING) and constraint
//     psi_dept: dept -> (id, name), N = 100;
//  2. rows 1..8 (hotel, golf, ..., alpha: names in descending byte order;
//     odd ids in d2, even ids in d1) in one batch;
//  3. a forced dictionary renumbering, then a checkpoint: version 1
//     segments, whose table meta carries the dictionary flag byte and
//     whose dictionary ends in the order trailer (sorted 1, rebuilds 1);
//  4. rows 9..13 (zulu d3, yankee d1, kilo d3, india d1, lima d3), the
//     delete of row 3, a second forced renumbering — a record of the
//     reserved WAL type 8 in the meta WAL past the checkpoint — and row 14
//     (juliet d2).
const char* const kUpgradeQueries[] = {
    "SELECT emp.id, emp.name FROM emp WHERE emp.dept = 'd1' "
    "ORDER BY emp.name",
    "SELECT emp.id, emp.name FROM emp WHERE emp.dept = 'd2' AND "
    "emp.name < 'golf' ORDER BY emp.id",
    "SELECT min(emp.name) AS lo, max(emp.name) AS hi FROM emp "
    "WHERE emp.dept = 'd1'",
    "SELECT emp.name FROM emp WHERE emp.dept = 'd3' AND "
    "emp.name BETWEEN 'kilo' AND 'zulu' ORDER BY emp.name DESC",
};

using UpgradeAnswers = std::vector<std::vector<std::string>>;

UpgradeAnswers AnswerUpgradeQueries(BeasService* svc) {
  UpgradeAnswers out;
  for (const char* sql : kUpgradeQueries) {
    std::vector<std::string> rows;
    auto resp = svc->Query({sql, QueryMode::kBoundedOnly});
    if (!resp.ok()) {
      rows.push_back("error: " + resp.status().ToString());
    } else {
      for (const Row& row : resp->result.rows) rows.push_back(RowToString(row));
    }
    out.push_back(std::move(rows));
  }
  return out;
}

/// The segment version of `dir`'s committed checkpoint: its manifest's and
/// its table segments', which must agree.
uint32_t CommittedSegmentVersion(const std::string& dir) {
  Env* env = Env::Default();
  auto manifest = durability::OpenSegment(env, dir + "/MANIFEST",
                                          durability::SegmentKind::kManifest);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  if (!manifest.ok()) return 0;
  const uint64_t id = manifest->reader().GetU64();
  const std::string base = dir + "/seg/ck" + std::to_string(id) + "/t_emp";
  auto meta = durability::OpenSegment(env, base + ".meta.seg",
                                      durability::SegmentKind::kTableMeta);
  auto dict = durability::OpenSegment(env, base + ".dict.seg",
                                      durability::SegmentKind::kDict);
  EXPECT_TRUE(meta.ok() && dict.ok());
  if (!meta.ok() || !dict.ok()) return 0;
  EXPECT_EQ(meta->version, manifest->version);
  EXPECT_EQ(dict->version, manifest->version);
  return manifest->version;
}

/// Recovers `dir` (a copy of the fixture), checks `expect`, scrubs, runs an
/// adjustment cycle and a checkpoint, then reopens from the version 2
/// checkpoint and checks the answers again.
void CheckUpgrade(const std::string& dir, const UpgradeAnswers& expect) {
  ASSERT_EQ(CommittedSegmentVersion(dir), 1u);
  {
    std::unique_ptr<BeasService> svc = MakeService(dir);
    ASSERT_TRUE(svc->durable()) << svc->durability_status().ToString();
    EXPECT_EQ(AnswerUpgradeQueries(svc.get()), expect);
    durability::ScrubReport report;
    Status scrubbed = svc->Scrub(&report);
    EXPECT_TRUE(scrubbed.ok()) << scrubbed.ToString();
    EXPECT_GT(report.segments_checked, 0u);
    EXPECT_EQ(report.corruptions_found, 0u);
    EXPECT_EQ(report.repairs, 0u);
    size_t changed = 0;
    Status cycle = svc->RunAdjustmentCycle(1.2, &changed);
    ASSERT_TRUE(cycle.ok()) << cycle.ToString();
    Status checkpoint = svc->Checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();
    EXPECT_EQ(AnswerUpgradeQueries(svc.get()), expect);
  }
  EXPECT_EQ(CommittedSegmentVersion(dir), durability::kSegVersion);
  std::unique_ptr<BeasService> again = MakeService(dir);
  ASSERT_TRUE(again->durable()) << again->durability_status().ToString();
  EXPECT_EQ(again->durability_counters().recovery_replayed_records, 0u);
  EXPECT_EQ(AnswerUpgradeQueries(again.get()), expect);
  durability::ScrubReport report;
  Status scrubbed = again->Scrub(&report);
  EXPECT_TRUE(scrubbed.ok()) << scrubbed.ToString();
  EXPECT_EQ(report.corruptions_found, 0u);
  EXPECT_EQ(report.repairs, 0u);
}

TEST(DurabilityUpgradeTest, RecoversVersion1DataDirWithDictRebuildRecords) {
  TempDir tmp;
  const std::string dir = tmp.path + "/data";
  std::filesystem::copy(std::string(BEAS_TEST_DATA_DIR) + "/v1_dict_rebuild",
                        dir, std::filesystem::copy_options::recursive);
  CheckUpgrade(dir, {
                        {"(8, 'alpha')", "(6, 'charlie')", "(4, 'echo')",
                         "(2, 'golf')", "(12, 'india')", "(10, 'yankee')"},
                        {"(5, 'delta')", "(7, 'bravo')"},
                        {"('alpha', 'yankee')"},
                        {"('zulu')", "('lima')", "('kilo')"},
                    });
}

// The same fixture without its live WAL epoch: recovery restores the
// version 1 checkpoint alone and replays nothing, so the table is clean and
// the scrub's memory pass compares the restored dictionary with the
// checkpoint's — whose version 1 payload differs from the current layout
// by its order trailer.
TEST(DurabilityUpgradeTest, ScrubAcceptsRestoredVersion1Dictionary) {
  TempDir tmp;
  const std::string dir = tmp.path + "/data";
  std::filesystem::copy(std::string(BEAS_TEST_DATA_DIR) + "/v1_dict_rebuild",
                        dir, std::filesystem::copy_options::recursive);
  for (const char* wal : {"meta.wal", "shard_0.wal", "shard_1.wal"}) {
    ASSERT_TRUE(std::filesystem::remove(dir + "/wal/" + wal)) << wal;
  }
  CheckUpgrade(dir, {
                        {"(8, 'alpha')", "(6, 'charlie')", "(4, 'echo')",
                         "(2, 'golf')"},
                        {"(3, 'foxtrot')", "(5, 'delta')", "(7, 'bravo')"},
                        {"('alpha', 'golf')"},
                        {},
                    });
}

TEST(DurabilityCountersTest, InMemoryServiceIsNotDurable) {
  std::unique_ptr<BeasService> svc = MakeService("");
  EXPECT_FALSE(svc->durable());
  EXPECT_TRUE(svc->durability_status().ok());
  EXPECT_FALSE(svc->Checkpoint().ok());
  durability::DurabilityCounters counters = svc->durability_counters();
  EXPECT_EQ(counters.wal_records_total, 0u);
  EXPECT_EQ(counters.checkpoints_total, 0u);
}

}  // namespace
}  // namespace beas
