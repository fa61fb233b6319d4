#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/statistics.h"
#include "storage/table_heap.h"
#include "test_util.h"
#include "types/schema.h"

namespace beas {
namespace {

using testing_util::I;
using testing_util::N;
using testing_util::S;
using testing_util::ShardOverrideGuard;

Schema TwoColSchema() {
  return Schema({{"id", TypeId::kInt64}, {"name", TypeId::kString}});
}

TEST(SchemaTest, IndexOfAndContains) {
  Schema s = TwoColSchema();
  EXPECT_EQ(*s.IndexOf("id"), 0u);
  EXPECT_EQ(*s.IndexOf("name"), 1u);
  EXPECT_FALSE(s.IndexOf("missing").ok());
  EXPECT_TRUE(s.Contains("id"));
  EXPECT_FALSE(s.Contains("missing"));
}

TEST(SchemaTest, Concat) {
  Schema a({{"x", TypeId::kInt64}});
  Schema b({{"y", TypeId::kString}});
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.NumColumns(), 2u);
  EXPECT_EQ(c.ColumnAt(1).name, "y");
}

TEST(SchemaTest, ToString) {
  EXPECT_EQ(TwoColSchema().ToString(), "id INT, name STRING");
}

TEST(TupleTest, ProjectAndConcat) {
  Row r{I(1), S("a"), I(3)};
  EXPECT_EQ(ProjectRow(r, {2, 0}), (Row{I(3), I(1)}));
  EXPECT_EQ(ConcatRows({I(1)}, {S("b")}), (Row{I(1), S("b")}));
}

TEST(TupleTest, SortAndDedupRows) {
  std::vector<Row> rows{{I(2)}, {I(1)}, {I(2)}, {I(1)}};
  SortAndDedupRows(&rows);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (Row{I(1)}));
  EXPECT_EQ(rows[1], (Row{I(2)}));
}

TEST(TupleTest, RowMultisetsEqual) {
  EXPECT_TRUE(RowMultisetsEqual({{I(1)}, {I(2)}, {I(2)}},
                                {{I(2)}, {I(1)}, {I(2)}}));
  EXPECT_FALSE(RowMultisetsEqual({{I(1)}, {I(2)}}, {{I(1)}, {I(1)}}));
  EXPECT_FALSE(RowMultisetsEqual({{I(1)}}, {{I(1)}, {I(1)}}));
}

TEST(TableHeapTest, InsertValidatesArity) {
  TableHeap heap(TwoColSchema());
  EXPECT_FALSE(heap.Insert({I(1)}).ok());
  EXPECT_TRUE(heap.Insert({I(1), S("a")}).ok());
  EXPECT_EQ(heap.NumRows(), 1u);
}

TEST(TableHeapTest, InsertCoercesTypes) {
  TableHeap heap(Schema({{"d", TypeId::kDate}}));
  ASSERT_TRUE(heap.Insert({S("2016-03-15")}).ok());
  EXPECT_EQ(heap.At(0)[0].type(), TypeId::kDate);
  EXPECT_FALSE(heap.Insert({S("garbage")}).ok());
}

TEST(TableHeapTest, InsertAllowsNulls) {
  TableHeap heap(TwoColSchema());
  ASSERT_TRUE(heap.Insert({N(), N()}).ok());
  EXPECT_TRUE(heap.At(0)[0].is_null());
}

TEST(TableHeapTest, DeleteTombstones) {
  TableHeap heap(TwoColSchema());
  SlotId s0 = *heap.Insert({I(1), S("a")});
  SlotId s1 = *heap.Insert({I(2), S("b")});
  ASSERT_TRUE(heap.Delete(s0).ok());
  EXPECT_EQ(heap.NumRows(), 1u);
  EXPECT_EQ(heap.NumSlots(), 2u);
  EXPECT_FALSE(heap.IsLive(s0));
  EXPECT_TRUE(heap.IsLive(s1));
  EXPECT_FALSE(heap.Delete(s0).ok()) << "double delete";
  EXPECT_FALSE(heap.Delete(99).ok()) << "out of range";
}

TEST(TableHeapTest, IteratorSkipsDead) {
  TableHeap heap(TwoColSchema());
  heap.InsertUnchecked({I(1), S("a")});
  SlotId s1 = heap.InsertUnchecked({I(2), S("b")});
  heap.InsertUnchecked({I(3), S("c")});
  ASSERT_TRUE(heap.Delete(s1).ok());
  std::vector<int64_t> seen;
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    seen.push_back(it.row()[0].AsInt64());
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3}));
}

TEST(TableHeapTest, SnapshotCopiesLiveRows) {
  TableHeap heap(TwoColSchema());
  heap.InsertUnchecked({I(1), S("a")});
  SlotId s1 = heap.InsertUnchecked({I(2), S("b")});
  ASSERT_TRUE(heap.Delete(s1).ok());
  auto rows = heap.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], I(1));
}

// ---------------------------------------------------------------------------
// Sharded TableHeap: hash partitioning must be invisible through the
// public surface — slots, iteration order, deletes, snapshots are all
// identical at every shard count.
// ---------------------------------------------------------------------------

TEST(ShardedHeapTest, PublicSurfaceInvariantAcrossShardCounts) {
  for (size_t shards : {size_t{1}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardOverrideGuard guard(shards);
    TableHeap heap(TwoColSchema());
    ASSERT_EQ(heap.num_shards(), shards);

    std::vector<SlotId> slots;
    for (int i = 0; i < 50; ++i) {
      slots.push_back(heap.InsertUnchecked({I(i), S("v" + std::to_string(i))}));
    }
    // Slots are dense and in insertion order, whatever the partitioning.
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(slots[i], static_cast<SlotId>(i));
      EXPECT_EQ(heap.At(slots[i])[0], I(i));
    }
    ASSERT_TRUE(heap.Delete(slots[10]).ok());
    ASSERT_TRUE(heap.Delete(slots[11]).ok());
    EXPECT_EQ(heap.NumRows(), 48u);
    EXPECT_EQ(heap.NumSlots(), 50u);

    std::vector<int64_t> seen;
    for (auto it = heap.Begin(); it.Valid(); it.Next()) {
      seen.push_back(it.row()[0].AsInt64());
    }
    ASSERT_EQ(seen.size(), 48u);
    for (size_t i = 0; i < seen.size(); ++i) {
      // Insertion order with 10 and 11 skipped.
      EXPECT_EQ(seen[i], static_cast<int64_t>(i < 10 ? i : i + 2));
    }

    // Per-shard live counts cover exactly the live rows.
    size_t per_shard_total = 0;
    for (size_t s = 0; s < heap.num_shards(); ++s) {
      per_shard_total += heap.ShardLiveRows(s);
    }
    EXPECT_EQ(per_shard_total, heap.NumRows());
  }
}

TEST(ShardedHeapTest, ShardKeyRoutesByDeclaredColumn) {
  ShardOverrideGuard guard(4);
  TableHeap heap(TwoColSchema());
  heap.DeclareShardKey(0);
  EXPECT_EQ(heap.shard_key_col(), 0);
  // Same key value => same shard, independent of the other columns.
  EXPECT_EQ(heap.ShardOf({I(7), S("a")}), heap.ShardOf({I(7), S("zzz")}));
  // Distinct key values spread across more than one shard (hash quality).
  std::vector<char> hit(4, 0);
  for (int k = 0; k < 64; ++k) hit[heap.ShardOf({I(k), S("x")})] = 1;
  EXPECT_GT(hit[0] + hit[1] + hit[2] + hit[3], 1);
  // A second declaration is ignored (first constraint wins).
  heap.DeclareShardKey(1);
  EXPECT_EQ(heap.shard_key_col(), 0);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", TwoColSchema()).ok());
  EXPECT_FALSE(catalog.CreateTable("T", TwoColSchema()).ok())
      << "names are case-insensitive";
  EXPECT_TRUE(catalog.GetTable("T").ok());
  EXPECT_TRUE(catalog.HasTable("t"));
  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_FALSE(catalog.GetTable("t").ok());
  EXPECT_FALSE(catalog.DropTable("t").ok());
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("zeta", TwoColSchema()).ok());
  ASSERT_TRUE(catalog.CreateTable("alpha", TwoColSchema()).ok());
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(StatisticsTest, ComputesCountsAndMinMax) {
  TableHeap heap(TwoColSchema());
  heap.InsertUnchecked({I(5), S("b")});
  heap.InsertUnchecked({I(3), S("a")});
  heap.InsertUnchecked({I(5), N()});
  TableStats stats = ComputeTableStats(heap);
  EXPECT_EQ(stats.row_count, 3u);
  EXPECT_EQ(stats.columns[0].distinct_count, 2u);
  EXPECT_EQ(stats.columns[0].min, I(3));
  EXPECT_EQ(stats.columns[0].max, I(5));
  EXPECT_EQ(stats.columns[1].null_count, 1u);
  EXPECT_EQ(stats.columns[1].distinct_count, 2u);
  EXPECT_EQ(stats.DistinctOf("id"), 2u);
  EXPECT_EQ(stats.DistinctOf("nope"), 0u);
}

TEST(StatisticsTest, CachedAndInvalidated) {
  Catalog catalog;
  TableInfo* info = *catalog.CreateTable("t", TwoColSchema());
  info->heap()->InsertUnchecked({I(1), S("a")});
  EXPECT_EQ(info->stats().row_count, 1u);
  info->heap()->InsertUnchecked({I(2), S("b")});
  // Slot count changed, stats recompute automatically.
  EXPECT_EQ(info->stats().row_count, 2u);
}

}  // namespace
}  // namespace beas
