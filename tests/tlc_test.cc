#include <gtest/gtest.h>

#include "asx/conformance.h"
#include "bounded/beas_session.h"
#include "common/crc32.h"
#include "storage/string_dict.h"
#include "types/value_codec.h"
#include "workload/tlc_access_schema.h"
#include "workload/tlc_generator.h"
#include "workload/tlc_queries.h"
#include "workload/tlc_schema.h"

namespace beas {
namespace {

TEST(TlcSchemaTest, TwelveRelations) {
  EXPECT_EQ(TlcTableNames().size(), 12u);
  for (const std::string& name : TlcTableNames()) {
    auto schema = TlcTableSchema(name);
    ASSERT_TRUE(schema.ok()) << name;
    EXPECT_GT(schema->NumColumns(), 0u);
  }
  EXPECT_FALSE(TlcTableSchema("bogus").ok());
}

TEST(TlcSchemaTest, CreateTablesIdempotentFailure) {
  Database db;
  ASSERT_TRUE(CreateTlcTables(&db).ok());
  EXPECT_FALSE(CreateTlcTables(&db).ok()) << "duplicate creation rejected";
}

// Pins the generated dataset independently of the shard count: every
// table's rows in directory order, dictionary-backed strings as their
// codes, then every dictionary's strings in code order. A change to the
// generator's draw order, to insertion order or to first-appearance code
// assignment changes the digest.
TEST(TlcGeneratorTest, DatasetDigestIsPinned) {
  Database db;
  TlcOptions options;
  options.scale_factor = 0.1;
  ASSERT_TRUE(GenerateTlc(&db, options).ok());
  ByteSink sink;
  for (const std::string& name : TlcTableNames()) {
    auto info = db.catalog()->GetTable(name);
    ASSERT_TRUE(info.ok()) << name;
    const TableHeap& heap = *(*info)->heap();
    sink.PutString(name);
    sink.PutU64(heap.NumRows());
    for (const Row& row : heap.Snapshot()) {
      for (const Value& v : row) {
        if (v.type() == TypeId::kString) {
          ASSERT_EQ(v.dict(), heap.dict()) << name;
          sink.PutU8(0xC0);
          sink.PutU32(v.dict_code());
        } else {
          WriteValue(&sink, v);
        }
      }
    }
    const StringDict* dict = heap.dict();
    sink.PutU64(dict == nullptr ? 0 : dict->size());
    for (uint32_t code = 0; dict != nullptr && code < dict->size(); ++code) {
      sink.PutString(dict->str(code));
    }
  }
  EXPECT_EQ(sink.size(), 616915u);
  EXPECT_EQ(Crc32c(sink.str().data(), sink.size()), 2797977020u);
}

class TlcFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    TlcOptions options;
    options.scale_factor = 0.5;
    auto stats = GenerateTlc(db_, options);
    ASSERT_TRUE(stats.ok());
    stats_ = new TlcStats(*stats);
    catalog_ = new AsCatalog(db_);
    ASSERT_TRUE(RegisterTlcAccessSchema(catalog_).ok());
    session_ = new BeasSession(db_, catalog_);
  }
  static void TearDownTestSuite() {
    delete session_;
    delete catalog_;
    delete stats_;
    delete db_;
    session_ = nullptr;
    catalog_ = nullptr;
    stats_ = nullptr;
    db_ = nullptr;
  }

  static Database* db_;
  static TlcStats* stats_;
  static AsCatalog* catalog_;
  static BeasSession* session_;
};

Database* TlcFixture::db_ = nullptr;
TlcStats* TlcFixture::stats_ = nullptr;
AsCatalog* TlcFixture::catalog_ = nullptr;
BeasSession* TlcFixture::session_ = nullptr;

TEST_F(TlcFixture, GeneratorProducesAllTables) {
  EXPECT_EQ(stats_->total_rows,
            [&] {
              size_t sum = 0;
              for (size_t i = 0; i < 12; ++i) sum += stats_->rows_per_table[i];
              return sum;
            }());
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_GT(stats_->rows_per_table[i], 0u) << TlcTableNames()[i];
  }
}

TEST_F(TlcFixture, GeneratorIsDeterministic) {
  Database db2;
  TlcOptions options;
  options.scale_factor = 0.5;
  auto stats2 = GenerateTlc(&db2, options);
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats_->total_rows, stats2->total_rows);
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(stats_->rows_per_table[i], stats2->rows_per_table[i]);
  }
}

TEST_F(TlcFixture, ScaleFactorScalesRows) {
  Database big;
  TlcOptions options;
  options.scale_factor = 1.0;
  auto stats = GenerateTlc(&big, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->total_rows, stats_->total_rows * 3 / 2);
}

TEST_F(TlcFixture, DataConformsToAccessSchema) {
  // The central data invariant: D |= A_TLC, so every deduced bound is a
  // real guarantee on this dataset.
  auto reports = VerifySchemaConformance(*db_, catalog_->schema());
  ASSERT_TRUE(reports.ok());
  for (const ConformanceReport& report : *reports) {
    EXPECT_TRUE(report.conforms) << report.ToString();
  }
}

TEST_F(TlcFixture, ElevenQueriesAllParseAndBind) {
  ASSERT_EQ(TlcQueries().size(), 11u);
  for (const TlcQuery& q : TlcQueries()) {
    auto bound = db_->Bind(q.sql);
    EXPECT_TRUE(bound.ok()) << q.id << ": " << bound.status().ToString();
  }
}

TEST_F(TlcFixture, CoverageMatchesExpectation) {
  size_t covered = 0;
  for (const TlcQuery& q : TlcQueries()) {
    auto coverage = session_->Check(q.sql);
    ASSERT_TRUE(coverage.ok()) << q.id;
    EXPECT_EQ(coverage->covered, q.expect_covered)
        << q.id << ": " << coverage->reason;
    if (coverage->covered) ++covered;
  }
  // The paper's ">90% of their queries": 10 of 11.
  EXPECT_EQ(covered, 10u);
}

TEST_F(TlcFixture, CohortQueriesNonEmpty) {
  // The generator plants a cohort so the headline queries have answers.
  for (const char* id : {"Q1", "Q2", "Q3", "Q5", "Q7", "Q10"}) {
    for (const TlcQuery& q : TlcQueries()) {
      if (q.id != id) continue;
      auto r = db_->Query(q.sql);
      ASSERT_TRUE(r.ok()) << q.id << ": " << r.status().ToString();
      EXPECT_GT(r.ValueOrDie().rows.size(), 0u) << q.id;
    }
  }
}

TEST_F(TlcFixture, Example2DeducedBoundMatchesPaper) {
  auto coverage = session_->Check(TlcExample2Sql());
  ASSERT_TRUE(coverage.ok());
  ASSERT_TRUE(coverage->covered);
  EXPECT_EQ(coverage->plan.total_access_bound, 12026000u)
      << "2,000 + 24,000 + 12,000,000 from Example 2";
  EXPECT_EQ(coverage->plan.NumConstraintsUsed(), 3u);
}

}  // namespace
}  // namespace beas
