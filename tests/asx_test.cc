#include <gtest/gtest.h>

#include <memory>

#include "asx/ac_index.h"
#include "asx/access_schema.h"
#include "asx/conformance.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "maintenance/maintenance.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::Dt;
using testing_util::I;
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
  heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100), S("R1")});
  heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(101), S("R1")});
  heap.InsertUnchecked({I(7), Dt("2016-03-16"), I(100), S("R1")});
  heap.InsertUnchecked({I(8), Dt("2016-03-15"), I(200), S("R2")});
  auto index = AcIndex::Build(Psi1(), heap);
  ASSERT_TRUE(index.ok());
  const auto* bucket = (*index)->Lookup({I(7), Dt("2016-03-15")});
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 2u);
  EXPECT_EQ((*index)->NumKeys(), 3u);
  EXPECT_EQ((*index)->NumEntries(), 4u);
  EXPECT_EQ((*index)->Lookup({I(9), Dt("2016-03-15")}), nullptr);
}

TEST(AcIndexTest, DistinctYDeduplicated) {
  TableHeap heap(CallSchema());
  // Two identical (recnum, region) projections for the same key.
  heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100), S("R1")});
  heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100), S("R1")});
  auto index = AcIndex::Build(Psi1(), heap);
  const auto* bucket = (*index)->Lookup({I(7), Dt("2016-03-15")});
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 1u) << "partial tuples are distinct";
  auto view = (*index)->LookupWithCounts({I(7), Dt("2016-03-15")});
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ((*view.multiplicities)[0], 2u) << "bag weight preserved";
}

TEST(AcIndexTest, NullKeysNotIndexed) {
  TableHeap heap(CallSchema());
  heap.InsertUnchecked({N(), Dt("2016-03-15"), I(100), S("R1")});
  auto index = AcIndex::Build(Psi1(), heap);
  EXPECT_EQ((*index)->NumKeys(), 0u);
}

TEST(AcIndexTest, IncrementalInsertDelete) {
  TableHeap heap(CallSchema());
  auto index = AcIndex::Build(Psi1(), heap);
  Row r1{I(7), Dt("2016-03-15"), I(100), S("R1")};
  Row r2{I(7), Dt("2016-03-15"), I(100), S("R1")};  // duplicate projection
  Row r3{I(7), Dt("2016-03-15"), I(101), S("R1")};
  (*index)->OnInsert(r1);
  (*index)->OnInsert(r2);
  (*index)->OnInsert(r3);
  EXPECT_EQ((*index)->Lookup({I(7), Dt("2016-03-15")})->size(), 2u);
  (*index)->OnDelete(r1);  // multiplicity 2 -> 1, still present
  EXPECT_EQ((*index)->Lookup({I(7), Dt("2016-03-15")})->size(), 2u);
  (*index)->OnDelete(r2);  // multiplicity 1 -> 0, removed
  EXPECT_EQ((*index)->Lookup({I(7), Dt("2016-03-15")})->size(), 1u);
  (*index)->OnDelete(r3);  // bucket empties and disappears
  EXPECT_EQ((*index)->Lookup({I(7), Dt("2016-03-15")}), nullptr);
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
      heap.InsertUnchecked(row);
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
    const auto* a = (*incremental)->Lookup(key);
    const auto* b = (*rebuilt)->Lookup(key);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a != nullptr) {
      std::vector<Row> av = *a;
      std::vector<Row> bv = *b;
      EXPECT_TRUE(RowMultisetsEqual(av, bv));
    }
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
    for (const Row& row : rows) heap->InsertUnchecked(row);
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
          EXPECT_EQ((*got->rows)[b], (*expect.rows)[b]);
          EXPECT_EQ((*got->multiplicities)[b], (*expect.multiplicities)[b]);
        }
      }
    }

    // Incremental maintenance routes to the right sub-index.
    Row extra{I(7), Dt("2016-03-15"), I(999), S("RX")};
    sharded->OnInsert(extra);
    ref->OnInsert(extra);
    EXPECT_EQ(sharded->NumEntries(), ref->NumEntries());
    auto after = sharded->LookupWithCounts({I(7), Dt("2016-03-15")});
    auto after_ref = ref->LookupWithCounts({I(7), Dt("2016-03-15")});
    ASSERT_EQ(after.size(), after_ref.size());
    EXPECT_EQ((*after.rows).back(), (*after_ref.rows).back());
    sharded->OnDelete(extra);
    ref->OnDelete(extra);
    EXPECT_EQ(sharded->NumEntries(), ref->NumEntries());
  }
}

TEST(AcIndexTest, ConformsAgainstDeclaredBound) {
  TableHeap heap(CallSchema());
  for (int i = 0; i < 5; ++i) {
    heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100 + i), S("R1")});
  }
  auto index = AcIndex::Build(Psi1(), heap);  // N=3 but 5 distinct
  EXPECT_EQ((*index)->MaxBucketSize(), 5u);
  EXPECT_FALSE((*index)->Conforms());
  (*index)->set_limit(10);
  EXPECT_TRUE((*index)->Conforms());
}

TEST(ConformanceTest, ReportsViolations) {
  TableHeap heap(CallSchema());
  for (int i = 0; i < 5; ++i) {
    heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100 + i), S("R1")});
  }
  heap.InsertUnchecked({I(8), Dt("2016-03-15"), I(1), S("R1")});
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
  heap.InsertUnchecked({I(7), Dt("2016-03-15"), I(100), S("R1")});
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
  ASSERT_NE(index->Lookup({I(9), Dt("2016-03-16")}), nullptr);
  EXPECT_EQ(maintenance.updates_applied(), 1u);

  ASSERT_TRUE(db_.DeleteWhereEquals(
                     "call", {I(9), Dt("2016-03-16"), I(300), S("R3")})
                  .ok());
  EXPECT_EQ(index->Lookup({I(9), Dt("2016-03-16")}), nullptr);
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
