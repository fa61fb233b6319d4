#include <gtest/gtest.h>

#include <memory>

#include "asx/ac_index.h"
#include "asx/access_schema.h"
#include "asx/conformance.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "maintenance/maintenance.h"
#include "test_util.h"
#include "workload/tlc_access_schema.h"
#include "workload/tlc_generator.h"

namespace beas {
namespace {

using testing_util::Dt;
using testing_util::I;
using testing_util::InsertRow;
using testing_util::MakeTable;
using testing_util::N;
using testing_util::S;
using testing_util::ShardOverrideGuard;

Schema CallSchema() {
  return Schema({{"pnum", TypeId::kInt64},
                 {"date", TypeId::kDate},
                 {"recnum", TypeId::kInt64},
                 {"region", TypeId::kString}});
}

AccessConstraint Psi1() {
  return {"psi1", "call", {"pnum", "date"}, {"recnum", "region"}, 3};
}

/// The Y-values of `bucket`, in bucket order.
std::vector<Row> YRows(const AcIndex::BucketView& bucket) {
  std::vector<Row> rows;
  for (size_t i = 0; i < bucket.size(); ++i) rows.push_back(bucket.YRow(i));
  return rows;
}

/// Inserts `row` into `heap` and returns it as the heap interned it in
/// place: maintenance is handed heap rows, whose strings are codes of the
/// heap's dictionary.
Row Stored(TableHeap* heap, Row row) {
  heap->InsertUnchecked(&row);
  return row;
}

TEST(AccessConstraintTest, ToStringAndResolve) {
  AccessConstraint c = Psi1();
  EXPECT_EQ(c.ToString(),
            "psi1: call({pnum, date} -> {recnum, region}, 3)");
  Schema schema = CallSchema();
  EXPECT_EQ(*c.ResolveX(schema), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(*c.ResolveY(schema), (std::vector<size_t>{2, 3}));
  AccessConstraint bad{"b", "call", {"nope"}, {"recnum"}, 1};
  EXPECT_FALSE(bad.ResolveX(schema).ok());
}

TEST(AcIndexTest, BuildAndLookup) {
  TableHeap heap(CallSchema());
  InsertRow(&heap, {I(7), Dt("2016-03-15"), I(100), S("R1")});
  InsertRow(&heap, {I(7), Dt("2016-03-15"), I(101), S("R1")});
  InsertRow(&heap, {I(7), Dt("2016-03-16"), I(100), S("R1")});
  InsertRow(&heap, {I(8), Dt("2016-03-15"), I(200), S("R2")});
  auto index = AcIndex::Build(Psi1(), heap);
  ASSERT_TRUE(index.ok());
  auto bucket = (*index)->LookupWithCounts({I(7), Dt("2016-03-15")});
  EXPECT_EQ(YRows(bucket), (std::vector<Row>{{I(100), S("R1")},
                                             {I(101), S("R1")}}));
  EXPECT_EQ((*index)->NumKeys(), 3u);
  EXPECT_EQ((*index)->NumEntries(), 4u);
  EXPECT_EQ((*index)->LookupWithCounts({I(9), Dt("2016-03-15")}).size(), 0u);
}

TEST(AcIndexTest, DistinctYDeduplicated) {
  TableHeap heap(CallSchema());
  // Two identical (recnum, region) projections for the same key.
  InsertRow(&heap, {I(7), Dt("2016-03-15"), I(100), S("R1")});
  InsertRow(&heap, {I(7), Dt("2016-03-15"), I(100), S("R1")});
  auto index = AcIndex::Build(Psi1(), heap);
  auto view = (*index)->LookupWithCounts({I(7), Dt("2016-03-15")});
  ASSERT_EQ(view.size(), 1u) << "partial tuples are distinct";
  EXPECT_EQ(view.multiplicity(0), 2u) << "bag weight preserved";
}

TEST(AcIndexTest, NullKeysNotIndexed) {
  TableHeap heap(CallSchema());
  InsertRow(&heap, {N(), Dt("2016-03-15"), I(100), S("R1")});
  auto index = AcIndex::Build(Psi1(), heap);
  EXPECT_EQ((*index)->NumKeys(), 0u);
}

TEST(AcIndexTest, IncrementalInsertDelete) {
  TableHeap heap(CallSchema());
  auto index = AcIndex::Build(Psi1(), heap);
  Row r1 = Stored(&heap, {I(7), Dt("2016-03-15"), I(100), S("R1")});
  Row r2 = Stored(&heap, {I(7), Dt("2016-03-15"), I(100), S("R1")});
  Row r3 = Stored(&heap, {I(7), Dt("2016-03-15"), I(101), S("R1")});
  (*index)->OnInsert(r1);
  (*index)->OnInsert(r2);  // duplicate projection
  (*index)->OnInsert(r3);
  ValueVec key{I(7), Dt("2016-03-15")};
  EXPECT_EQ((*index)->LookupWithCounts(key).size(), 2u);
  (*index)->OnDelete(r1);  // multiplicity 2 -> 1, still present
  EXPECT_EQ((*index)->LookupWithCounts(key).size(), 2u);
  (*index)->OnDelete(r2);  // multiplicity 1 -> 0, removed
  EXPECT_EQ(YRows((*index)->LookupWithCounts(key)),
            (std::vector<Row>{{I(101), S("R1")}}));
  (*index)->OnDelete(r3);  // bucket empties and disappears
  EXPECT_EQ((*index)->LookupWithCounts(key).size(), 0u);
  EXPECT_EQ((*index)->NumKeys(), 0u);
  EXPECT_EQ((*index)->NumEntries(), 0u);
}

TEST(AcIndexTest, IncrementalEqualsRebuildProperty) {
  // Property: after any interleaving of inserts/deletes, the incrementally
  // maintained index equals one rebuilt from scratch.
  Rng rng(99);
  TableHeap heap(CallSchema());
  auto incremental = AcIndex::Build(Psi1(), heap);
  std::vector<Row> live;
  for (int step = 0; step < 500; ++step) {
    bool do_insert = live.empty() || rng.Chance(0.6);
    if (do_insert) {
      Row row{I(rng.Uniform(1, 5)), Dt("2016-03-15"), I(rng.Uniform(100, 104)),
              S(rng.Chance(0.5) ? "R1" : "R2")};
      live.push_back(row);
      InsertRow(&heap, row);
      (*incremental)->OnInsert(row);
    } else {
      size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      Row row = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      // Delete one matching live row from the heap.
      for (auto it = heap.Begin(); it.Valid(); it.Next()) {
        if (ValueVecEq{}(it.row(), row)) {
          ASSERT_TRUE(heap.Delete(it.slot()).ok());
          break;
        }
      }
      (*incremental)->OnDelete(row);
    }
  }
  auto rebuilt = AcIndex::Build(Psi1(), heap);
  EXPECT_EQ((*incremental)->NumKeys(), (*rebuilt)->NumKeys());
  EXPECT_EQ((*incremental)->NumEntries(), (*rebuilt)->NumEntries());
  // Spot-check every key of the rebuilt index.
  for (int p = 1; p <= 5; ++p) {
    ValueVec key{I(p), Dt("2016-03-15")};
    std::vector<Row> a = YRows((*incremental)->LookupWithCounts(key));
    std::vector<Row> b = YRows((*rebuilt)->LookupWithCounts(key));
    EXPECT_TRUE(RowMultisetsEqual(a, b));
  }
}

// ---------------------------------------------------------------------------
// Sharded AcIndex: sub-indexing by key hash must be invisible — same
// buckets, same in-bucket order, same counters at every shard count, and
// the shard-routed LookupBatch (serial or pooled) must agree with the
// per-key probes.
// ---------------------------------------------------------------------------

TEST(AcIndexShardingTest, ShardCountsProduceIdenticalBuckets) {
  Rng rng(1234);
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({I(rng.Uniform(0, 40)), Dt("2016-03-15"),
                    I(rng.Uniform(100, 110)), S("R" + std::to_string(i % 3))});
  }

  auto build = [&](size_t shards) {
    ShardOverrideGuard guard(shards);
    auto heap = std::make_unique<TableHeap>(CallSchema());
    for (const Row& row : rows) InsertRow(heap.get(), row);
    auto index = AcIndex::Build(Psi1(), *heap);
    EXPECT_TRUE(index.ok());
    return std::make_pair(std::move(heap), std::move(*index));
  };
  auto [heap1, ref] = build(1);
  ASSERT_EQ(ref->num_shards(), 1u);

  // Probe keys: all present keys plus misses and a NULL-bearing key.
  std::vector<ValueVec> keys;
  for (int k = 0; k < 44; ++k) keys.push_back({I(k), Dt("2016-03-15")});
  keys.push_back({I(7), Dt("1999-01-01")});
  keys.push_back({N(), Dt("2016-03-15")});
  for (int k = 0; k < 44; ++k) keys.push_back({I(k), Dt("2016-03-15")});

  TaskPool pool(3);
  for (size_t shards : {size_t{3}, size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto [heap_s, sharded] = build(shards);
    EXPECT_EQ(sharded->num_shards(), shards);
    EXPECT_EQ(sharded->NumKeys(), ref->NumKeys());
    EXPECT_EQ(sharded->NumEntries(), ref->NumEntries());
    EXPECT_EQ(sharded->MaxBucketSize(), ref->MaxBucketSize());

    std::vector<AcIndex::BucketView> pooled(keys.size());
    std::vector<AcIndex::BucketView> serial(keys.size());
    sharded->LookupBatch(keys.data(), keys.size(), pooled.data(), &pool);
    sharded->LookupBatch(keys.data(), keys.size(), serial.data(),
                         static_cast<TaskPool*>(nullptr));
    for (size_t i = 0; i < keys.size(); ++i) {
      SCOPED_TRACE("key " + std::to_string(i));
      AcIndex::BucketView expect = ref->LookupWithCounts(keys[i]);
      for (const AcIndex::BucketView* got : {&pooled[i], &serial[i]}) {
        ASSERT_EQ(got->size(), expect.size());
        for (size_t b = 0; b < expect.size(); ++b) {
          // Same distinct Y-projections, same first-appearance order,
          // same multiplicities.
          EXPECT_EQ(got->YRow(b), expect.YRow(b));
          EXPECT_EQ(got->multiplicity(b), expect.multiplicity(b));
        }
      }
    }

    // Incremental maintenance routes to the right sub-index.
    Row extra = Stored(heap_s.get(), {I(7), Dt("2016-03-15"), I(999), S("RX")});
    Row extra_ref = Stored(heap1.get(), extra);
    sharded->OnInsert(extra);
    ref->OnInsert(extra_ref);
    EXPECT_EQ(sharded->NumEntries(), ref->NumEntries());
    auto after = sharded->LookupWithCounts({I(7), Dt("2016-03-15")});
    auto after_ref = ref->LookupWithCounts({I(7), Dt("2016-03-15")});
    ASSERT_EQ(after.size(), after_ref.size());
    EXPECT_EQ(after.YRow(after.size() - 1),
              after_ref.YRow(after_ref.size() - 1));
    sharded->OnDelete(extra);
    ref->OnDelete(extra_ref);
    EXPECT_EQ(sharded->NumEntries(), ref->NumEntries());
  }
}

TEST(AcIndexTest, ConformsAgainstDeclaredBound) {
  TableHeap heap(CallSchema());
  for (int i = 0; i < 5; ++i) {
    InsertRow(&heap, {I(7), Dt("2016-03-15"), I(100 + i), S("R1")});
  }
  auto index = AcIndex::Build(Psi1(), heap);  // N=3 but 5 distinct
  EXPECT_EQ((*index)->MaxBucketSize(), 5u);
  EXPECT_FALSE((*index)->Conforms());
  (*index)->set_limit(10);
  EXPECT_TRUE((*index)->Conforms());
}

// ---------------------------------------------------------------------------
// Packed cells keep Value equality exactly: every probe spelling of a key
// finds the bucket its canonical (stored) spelling finds, and nothing else.
// ---------------------------------------------------------------------------

TEST(AcIndexCellTest, ProbesMatchExactlyWhereValuesAreEqual) {
  TableHeap heap(Schema({{"i", TypeId::kInt64},
                         {"d", TypeId::kDate},
                         {"x", TypeId::kDouble},
                         {"s", TypeId::kString},
                         {"y", TypeId::kInt64}}));
  InsertRow(&heap,
            {I(7), Dt("2016-03-15"), Value::Double(-0.0), S("in"), I(1)});
  // -0.0 and 0.0 are one key value.
  InsertRow(&heap,
            {I(7), Dt("2016-03-15"), Value::Double(0.0), S("in"), I(2)});
  InsertRow(&heap,
            {I(7), Dt("2016-03-15"), Value::Double(0.0), S("in"), N()});
  // A NULL X part: not indexed.
  InsertRow(&heap, {N(), Dt("2016-03-15"), Value::Double(1.0), S("in"), I(3)});
  auto built =
      AcIndex::Build({"psi", "t", {"i", "d", "x", "s"}, {"y"}, 8}, heap);
  ASSERT_TRUE(built.ok());
  const AcIndex& index = **built;
  EXPECT_EQ(index.NumKeys(), 1u);
  EXPECT_EQ(index.NumEntries(), 3u);

  // The canonical key: the first stored row's X-projection.
  Row first = heap.Begin().row();
  ValueVec canonical(first.begin(), first.begin() + 4);
  ASSERT_NE(canonical[3].dict(), nullptr);
  AcIndex::BucketView bucket = index.LookupWithCounts(canonical);
  ASSERT_EQ(bucket.size(), 3u);
  EXPECT_EQ(YRows(bucket), (std::vector<Row>{{I(1)}, {I(2)}, {N()}}));
  EXPECT_TRUE(bucket.IsNull(2, 0)) << "a NULL Y-value round-trips";
  EXPECT_TRUE(bucket.Y(2, 0).is_null());

  auto key = [](Value i, Value d, Value x, Value s) {
    return ValueVec{std::move(i), std::move(d), std::move(x), std::move(s)};
  };
  const Value date = Dt("2016-03-15");
  struct Case {
    const char* what;
    ValueVec key;
    bool match;
  };
  std::vector<Case> cases = {
      {"INT column probed with DOUBLE 7.0",
       key(Value::Double(7.0), date, Value::Double(0.0), S("in")), true},
      {"INT column probed with DOUBLE 7.5",
       key(Value::Double(7.5), date, Value::Double(0.0), S("in")), false},
      {"DATE column probed with its DATE",
       key(I(7), Dt("2016-03-15"), Value::Double(0.0), S("in")), true},
      {"DATE column probed with its INT encoding",
       key(I(7), I(20160315), Value::Double(0.0), S("in")), true},
      {"DATE column probed with another DATE",
       key(I(7), Dt("2016-03-16"), Value::Double(0.0), S("in")), false},
      {"DOUBLE column probed with -0.0",
       key(I(7), date, Value::Double(-0.0), S("in")), true},
      {"DOUBLE column probed with INT 0",
       key(I(7), date, I(0), S("in")), true},
      {"inline string in the dictionary",
       key(I(7), date, Value::Double(0.0), S("in")), true},
      {"inline string not in the dictionary",
       key(I(7), date, Value::Double(0.0), S("out")), false},
      {"NULL X part", key(N(), date, Value::Double(1.0), S("in")), false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    AcIndex::BucketView got = index.LookupWithCounts(c.key);
    if (c.match) {
      EXPECT_EQ(got.size(), bucket.size());
      EXPECT_EQ(got.cells, bucket.cells);
      EXPECT_EQ(got.mults, bucket.mults);
    } else {
      EXPECT_EQ(got.size(), 0u);
    }
    AcIndex::BucketView batched;
    index.LookupBatch(&c.key, 1, &batched);
    EXPECT_EQ(batched.cells, got.cells);
    EXPECT_EQ(batched.size(), got.size());
  }
}

TEST(AcIndexCellTest, PooledAndSerialLookupBatchAgree) {
  Rng rng(77);
  std::vector<Row> rows;
  for (int i = 0; i < 3000; ++i) {
    rows.push_back({I(rng.Uniform(0, 1200)), Dt("2016-03-15"),
                    I(rng.Uniform(100, 104)),
                    rng.Chance(0.1) ? N() : S("R" + std::to_string(i % 7))});
  }
  // More keys than the sharded probe's serial cutoff, so the partitioned
  // path runs; misses and NULL-bearing keys included.
  std::vector<ValueVec> keys;
  for (int k = 0; k < 1300; ++k) keys.push_back({I(k), Dt("2016-03-15")});
  keys.push_back({N(), Dt("2016-03-15")});
  keys.push_back({I(5), Dt("1999-01-01")});
  TaskPool pool(3);
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardOverrideGuard guard(shards);
    TableHeap heap(CallSchema());
    for (const Row& row : rows) InsertRow(&heap, row);
    auto index = AcIndex::Build(Psi1(), heap);
    ASSERT_TRUE(index.ok());
    ASSERT_EQ((*index)->num_shards(), shards);
    std::vector<AcIndex::BucketView> pooled(keys.size());
    std::vector<AcIndex::BucketView> serial(keys.size());
    std::vector<AcIndex::BucketView> plain(keys.size());
    (*index)->LookupBatch(keys.data(), keys.size(), pooled.data(), &pool);
    (*index)->LookupBatch(keys.data(), keys.size(), serial.data(),
                          static_cast<TaskPool*>(nullptr));
    (*index)->LookupBatch(keys.data(), keys.size(), plain.data());
    size_t hits = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      AcIndex::BucketView expect = (*index)->LookupWithCounts(keys[i]);
      hits += expect.size() > 0 ? 1 : 0;
      for (const AcIndex::BucketView* got : {&pooled[i], &serial[i], &plain[i]}) {
        ASSERT_EQ(got->size(), expect.size()) << i;
        EXPECT_EQ(got->cells, expect.cells) << i;
      }
    }
    EXPECT_GT(hits, 900u);
  }
}

// The packed layout's footprint, pinned: the TLC indexes at SF 1 take
// about 66 bytes per distinct (X, Y) entry, keys and table slack included.
TEST(AcIndexCellTest, TlcIndexBytesPerEntryStayUnderCeiling) {
  Database db;
  TlcOptions options;
  options.scale_factor = 1.0;
  ASSERT_TRUE(GenerateTlc(&db, options).ok());
  AsCatalog catalog(&db);
  ASSERT_TRUE(RegisterTlcAccessSchema(&catalog).ok());
  size_t entries = 0;
  for (const AccessConstraint& c : catalog.schema().constraints()) {
    entries += catalog.IndexFor(c.name)->NumEntries();
  }
  ASSERT_GT(entries, 0u);
  double per_entry = static_cast<double>(catalog.TotalIndexBytes()) /
                     static_cast<double>(entries);
  EXPECT_LT(per_entry, 96.0);
}

TEST(ConformanceTest, ReportsViolations) {
  TableHeap heap(CallSchema());
  for (int i = 0; i < 5; ++i) {
    InsertRow(&heap, {I(7), Dt("2016-03-15"), I(100 + i), S("R1")});
  }
  InsertRow(&heap, {I(8), Dt("2016-03-15"), I(1), S("R1")});
  auto report = VerifyConformance(heap, Psi1());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->conforms);
  EXPECT_EQ(report->observed_max, 5u);
  EXPECT_EQ(report->num_keys, 2u);
  EXPECT_EQ(report->sample_violations.size(), 1u);
  EXPECT_NE(report->ToString().find("VIOLATED"), std::string::npos);
}

TEST(ConformanceTest, PassesWhenWithinBound) {
  TableHeap heap(CallSchema());
  InsertRow(&heap, {I(7), Dt("2016-03-15"), I(100), S("R1")});
  auto report = VerifyConformance(heap, Psi1());
  EXPECT_TRUE(report->conforms);
}

TEST(AccessSchemaTest, AddFindDuplicates) {
  AccessSchema schema;
  ASSERT_TRUE(schema.Add(Psi1()).ok());
  EXPECT_EQ(schema.Add(Psi1()).code(), StatusCode::kAlreadyExists);
  AccessConstraint unnamed{"", "call", {"pnum"}, {"recnum"}, 9};
  ASSERT_TRUE(schema.Add(unnamed).ok());
  EXPECT_EQ(schema.constraints()[1].name, "psi2") << "auto-named";
  EXPECT_TRUE(schema.Find("psi1").ok());
  EXPECT_FALSE(schema.Find("nope").ok());
  EXPECT_EQ(schema.ForTable("call").size(), 2u);
  EXPECT_EQ(schema.ForTable("other").size(), 0u);
}

class AsCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MakeTable(&db_, "call", CallSchema(),
              {{I(7), Dt("2016-03-15"), I(100), S("R1")},
               {I(7), Dt("2016-03-15"), I(101), S("R1")}});
  }
  Database db_;
};

TEST_F(AsCatalogTest, RegisterBuildsIndex) {
  AsCatalog catalog(&db_);
  ASSERT_TRUE(catalog.Register(Psi1()).ok());
  AcIndex* index = catalog.IndexFor("psi1");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->NumEntries(), 2u);
  EXPECT_EQ(catalog.IndexesForTable("call").size(), 1u);
  EXPECT_GT(catalog.TotalIndexBytes(), 0u);
  EXPECT_NE(catalog.MetadataReport().find("psi1"), std::string::npos);
}

TEST_F(AsCatalogTest, RegisterUnknownTableFails) {
  AsCatalog catalog(&db_);
  AccessConstraint c{"x", "missing", {"a"}, {"b"}, 1};
  EXPECT_FALSE(catalog.Register(c).ok());
  EXPECT_EQ(catalog.schema().size(), 0u) << "rollback on failure";
}

TEST_F(AsCatalogTest, UnregisterRemoves) {
  AsCatalog catalog(&db_);
  ASSERT_TRUE(catalog.Register(Psi1()).ok());
  ASSERT_TRUE(catalog.Unregister("psi1").ok());
  EXPECT_EQ(catalog.IndexFor("psi1"), nullptr);
  EXPECT_EQ(catalog.Unregister("psi1").code(), StatusCode::kNotFound);
}

TEST_F(AsCatalogTest, AdjustLimitUpdatesSchemaAndIndex) {
  AsCatalog catalog(&db_);
  ASSERT_TRUE(catalog.Register(Psi1()).ok());
  ASSERT_TRUE(catalog.AdjustLimit("psi1", 77).ok());
  EXPECT_EQ((*catalog.schema().Find("psi1"))->limit_n, 77u);
  EXPECT_EQ(catalog.IndexFor("psi1")->constraint().limit_n, 77u);
}

TEST_F(AsCatalogTest, MaintenanceHookKeepsIndexFresh) {
  AsCatalog catalog(&db_);
  ASSERT_TRUE(catalog.Register(Psi1()).ok());
  MaintenanceManager maintenance(&db_, &catalog);
  maintenance.Attach();

  ASSERT_TRUE(
      db_.Insert("call", {I(9), Dt("2016-03-16"), I(300), S("R3")}).ok());
  AcIndex* index = catalog.IndexFor("psi1");
  ASSERT_EQ(index->LookupWithCounts({I(9), Dt("2016-03-16")}).size(), 1u);
  EXPECT_EQ(maintenance.updates_applied(), 1u);

  ASSERT_TRUE(db_.DeleteWhereEquals(
                     "call", {I(9), Dt("2016-03-16"), I(300), S("R3")})
                  .ok());
  EXPECT_EQ(index->LookupWithCounts({I(9), Dt("2016-03-16")}).size(), 0u);
  EXPECT_EQ(maintenance.updates_applied(), 2u);
}

TEST_F(AsCatalogTest, RevalidateSuggestsAdjustments) {
  AsCatalog catalog(&db_);
  AccessConstraint tight = Psi1();
  tight.limit_n = 1;  // data has 2 distinct Y for the key -> violated
  ASSERT_TRUE(catalog.Register(tight).ok());
  MaintenanceManager maintenance(&db_, &catalog);
  auto suggestions = maintenance.RevalidateAndSuggest(1.5);
  ASSERT_EQ(suggestions.size(), 1u);
  EXPECT_TRUE(suggestions[0].violated);
  EXPECT_EQ(suggestions[0].observed_max, 2u);
  EXPECT_EQ(suggestions[0].suggested_n, 3u);  // ceil(2 * 1.5)
  ASSERT_TRUE(maintenance.ApplySuggestions(suggestions).ok());
  EXPECT_EQ((*catalog.schema().Find("psi1"))->limit_n, 3u);
  EXPECT_FALSE(maintenance.RevalidateAndSuggest(1.0)[0].violated);
}

}  // namespace
}  // namespace beas
