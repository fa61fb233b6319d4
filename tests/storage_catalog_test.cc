#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "catalog/catalog.h"
#include "catalog/statistics.h"
#include "storage/table_heap.h"
#include "test_util.h"
#include "types/schema.h"
#include "workload/tlc_generator.h"
#include "workload/tlc_schema.h"

namespace beas {
namespace {

using testing_util::D;
using testing_util::Dt;
using testing_util::I;
using testing_util::InsertRow;
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
  EXPECT_EQ(heap.ValueAt(0, 0).type(), TypeId::kDate);
  EXPECT_FALSE(heap.Insert({S("garbage")}).ok());
}

TEST(TableHeapTest, InsertAllowsNulls) {
  TableHeap heap(TwoColSchema());
  ASSERT_TRUE(heap.Insert({N(), N()}).ok());
  EXPECT_TRUE(heap.ValueAt(0, 0).is_null());
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
  InsertRow(&heap, {I(1), S("a")});
  SlotId s1 = InsertRow(&heap, {I(2), S("b")});
  InsertRow(&heap, {I(3), S("c")});
  ASSERT_TRUE(heap.Delete(s1).ok());
  std::vector<int64_t> seen;
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    seen.push_back(it.row()[0].AsInt64());
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3}));
}

TEST(TableHeapTest, SnapshotCopiesLiveRows) {
  TableHeap heap(TwoColSchema());
  InsertRow(&heap, {I(1), S("a")});
  SlotId s1 = InsertRow(&heap, {I(2), S("b")});
  ASSERT_TRUE(heap.Delete(s1).ok());
  auto rows = heap.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], I(1));
}

// ---------------------------------------------------------------------------
// Packed cells: every column type round-trips through its 8-byte cell, and
// the heap's byte gauge stays near the packed footprint.
// ---------------------------------------------------------------------------

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(TableHeapCellTest, EveryTypeRoundTripsThroughItsCell) {
  TableHeap heap(Schema({{"i", TypeId::kInt64},
                         {"d", TypeId::kDate},
                         {"x", TypeId::kDouble},
                         {"s", TypeId::kString}}));
  ASSERT_EQ(heap.stride(), 5u) << "four payload cells and one mask cell";
  double nan = std::numeric_limits<double>::quiet_NaN();
  uint64_t nan_bits = DoubleBits(nan) | 0x5;  // a NaN with a payload
  double odd_nan;
  std::memcpy(&odd_nan, &nan_bits, sizeof(odd_nan));
  InsertRow(&heap, {I(INT64_MIN), Dt("2016-03-15"), D(-0.0), S("a")});
  InsertRow(&heap, {N(), N(), D(odd_nan), N()});
  InsertRow(&heap, {I(-1), Dt("1999-12-31"), N(), S("")});

  Row r0 = heap.RowAt(0);
  EXPECT_EQ(r0[0].type(), TypeId::kInt64);
  EXPECT_EQ(r0[0].AsInt64(), INT64_MIN);
  EXPECT_EQ(r0[1].type(), TypeId::kDate);
  EXPECT_EQ(r0[1], Dt("2016-03-15"));
  EXPECT_EQ(DoubleBits(r0[2].AsDouble()), DoubleBits(-0.0));
  EXPECT_EQ(r0[3].dict(), heap.dict());
  EXPECT_EQ(r0[3].AsString(), "a");
  EXPECT_EQ(heap.CellsAt(0)[3], r0[3].dict_code()) << "a STRING cell is its code";
  EXPECT_EQ(heap.CellsAt(0)[4], 0u) << "no NULLs, empty mask";

  EXPECT_TRUE(heap.ValueAt(1, 0).is_null());
  EXPECT_TRUE(heap.ValueAt(1, 1).is_null());
  EXPECT_EQ(DoubleBits(heap.ValueAt(1, 2).AsDouble()), nan_bits);
  EXPECT_TRUE(heap.ValueAt(1, 3).is_null());
  EXPECT_EQ(heap.CellsAt(1)[4], 0b1011u);
  EXPECT_EQ(heap.CellsAt(1)[0], 0u) << "a NULL's payload cell is 0";

  EXPECT_EQ(heap.ValueAt(2, 3).AsString(), "");
  EXPECT_TRUE(heap.ValueAt(2, 2).is_null());

  // FindEqual compares under Value equality: -0.0 equals 0.0, an INT
  // probe equals the DOUBLE, NULL matches only NULL.
  EXPECT_EQ(heap.FindEqual({I(INT64_MIN), Dt("2016-03-15"), D(0.0), S("a")}),
            0u);
  EXPECT_EQ(heap.FindEqual({I(-1), Dt("1999-12-31"), N(), S("")}), 2u);
  EXPECT_EQ(heap.FindEqual({I(-1), Dt("1999-12-31"), D(0), S("")}),
            TableHeap::kNoSlot);
  EXPECT_EQ(heap.FindEqual({I(-1), Dt("1999-12-31"), N(), S("b")}),
            TableHeap::kNoSlot);
}

TEST(TableHeapCellTest, WideRowsSpillTheNullMaskIntoASecondCell) {
  std::vector<Column> cols;
  for (int c = 0; c < 70; ++c) {
    cols.emplace_back("c" + std::to_string(c), TypeId::kInt64);
  }
  TableHeap heap{Schema(cols)};
  ASSERT_EQ(heap.stride(), 72u);
  Row row;
  for (int c = 0; c < 70; ++c) row.push_back(c == 66 ? N() : I(c * 3));
  InsertRow(&heap, row);
  EXPECT_EQ(heap.CellsAt(0)[70], 0u);
  EXPECT_EQ(heap.CellsAt(0)[71], uint64_t{1} << 2);
  EXPECT_TRUE(heap.ValueAt(0, 66).is_null());
  EXPECT_EQ(heap.ValueAt(0, 69), I(207));
  EXPECT_EQ(heap.RowAt(0), row);
}

// Recovery packs checkpointed rows against the restored dictionary; a row
// that cannot be stored as cells is corruption, not a row kept aside.
TEST(TableHeapCellTest, PackRestoredRejectsRowsThatDoNotFit) {
  TableHeap heap(TwoColSchema());
  ASSERT_TRUE(heap.RestoreDict({"a", "b"}).ok());
  std::vector<Cell> cells(heap.stride());
  ASSERT_TRUE(heap.PackRestored({I(4), S("b")}, cells.data()).ok());
  EXPECT_EQ(cells, (std::vector<Cell>{4, 1, 0}));
  ASSERT_TRUE(heap.PackRestored({N(), S("a")}, cells.data()).ok());
  EXPECT_EQ(cells, (std::vector<Cell>{0, 0, 1}));
  EXPECT_EQ(heap.PackRestored({I(4), S("zz")}, cells.data()).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(heap.PackRestored({S("a"), S("a")}, cells.data()).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(heap.PackRestored({I(4)}, cells.data()).code(),
            StatusCode::kCorruption);
}

// The packed layout at TLC SF 1: 8 bytes per payload cell plus, per slot,
// the mask cell, the directory entry and the live flag. The row-of-Values
// layout it replaced measured about 73 bytes per cell.
TEST(TableHeapCellTest, TlcHeapBytesPerCellStayUnderCeiling) {
  Database db;
  TlcOptions options;
  options.scale_factor = 1.0;
  ASSERT_TRUE(GenerateTlc(&db, options).ok());
  uint64_t bytes = 0;
  uint64_t cells = 0;
  for (const std::string& name : TlcTableNames()) {
    const TableHeap& heap = *(*db.catalog()->GetTable(name))->heap();
    bytes += heap.ApproxBytes();
    cells += heap.NumSlots() * heap.schema().NumColumns();
  }
  ASSERT_GT(cells, 0u);
  double per_cell = static_cast<double>(bytes) / static_cast<double>(cells);
  RecordProperty("bytes_per_cell", std::to_string(per_cell));
  EXPECT_LE(per_cell, 16.0) << bytes << " bytes for " << cells << " cells";
  EXPECT_GE(per_cell, 8.0) << "every cell is counted";
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
      slots.push_back(InsertRow(&heap, {I(i), S("v" + std::to_string(i))}));
    }
    // Slots are dense and in insertion order, whatever the partitioning.
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(slots[i], static_cast<SlotId>(i));
      EXPECT_EQ(heap.ValueAt(slots[i], 0), I(i));
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
  InsertRow(&heap, {I(5), S("b")});
  InsertRow(&heap, {I(3), S("a")});
  InsertRow(&heap, {I(5), N()});
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
  InsertRow(info->heap(), {I(1), S("a")});
  EXPECT_EQ(info->stats().row_count, 1u);
  InsertRow(info->heap(), {I(2), S("b")});
  // Slot count changed, stats recompute automatically.
  EXPECT_EQ(info->stats().row_count, 2u);
}

}  // namespace
}  // namespace beas
