// Columnar relational tail: differential coverage against the reference
// path's scalar tail on large batches (including the chunk-parallel
// fold), string ORDER BY in byte order over first-appearance codes, the
// tail telemetry counters, exact integer SUM, binder refusal of tails
// that would not compile, and answers that do not depend on the order
// strings were interned in.

#include <gtest/gtest.h>

#include "bounded/beas_session.h"
#include "bounded/bounded_executor.h"
#include "bounded/columnar_tail.h"
#include "common/task_pool.h"
#include "support/reference_executor.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::I;
using testing_util::S;

/// Two-step string chain big enough to cross the tail's parallel-fold
/// threshold (80 x 60 = 4800 T rows): e1(root -> l1), e2(l1 -> payload).
struct TailEnv {
  std::unique_ptr<Database> db;
  std::unique_ptr<AsCatalog> catalog;
  std::unique_ptr<BeasSession> session;
};

TailEnv MakeTailEnv(bool sorted_inserts = false) {
  TailEnv env;
  env.db = std::make_unique<Database>();
  EXPECT_TRUE(env.db
                  ->CreateTable("e1", Schema({{"src", TypeId::kString},
                                              {"dst", TypeId::kString}}))
                  .ok());
  EXPECT_TRUE(env.db
                  ->CreateTable("e2", Schema({{"src", TypeId::kString},
                                              {"val", TypeId::kInt64},
                                              {"tag", TypeId::kString}}))
                  .ok());
  std::vector<Row> e1_rows;
  for (int i = 0; i < 80; ++i) {
    // Descending node names make the dictionary maximally out of order
    // unless the test asks for sorted inserts.
    int node = sorted_inserts ? i : 79 - i;
    e1_rows.push_back(
        {S("root"), S("l1_" + std::to_string(1000 + node) + "_node")});
  }
  EXPECT_TRUE(env.db->InsertBatch("e1", std::move(e1_rows)).ok());
  std::vector<Row> e2_rows;
  const char* tags[] = {"tg", "ta", "tc", "tb", "tf", "td", "te"};
  for (int i = 0; i < 80; ++i) {
    for (int j = 0; j < 60; ++j) {
      e2_rows.push_back({S("l1_" + std::to_string(1000 + i) + "_node"),
                         I((i * 7 + j * 13) % 97),
                         S(tags[(i + j) % 7])});
    }
  }
  EXPECT_TRUE(env.db->InsertBatch("e2", std::move(e2_rows)).ok());

  env.catalog = std::make_unique<AsCatalog>(env.db.get());
  EXPECT_TRUE(env.catalog->Register({"t1", "e1", {"src"}, {"dst"}, 80}).ok());
  EXPECT_TRUE(
      env.catalog->Register({"t2", "e2", {"src"}, {"val", "tag"}, 60}).ok());
  env.session = std::make_unique<BeasSession>(env.db.get(), env.catalog.get());
  return env;
}

/// Renders a result's rows for representation-independent comparison
/// (two databases intern the same strings under different codes).
std::vector<std::vector<std::string>> Render(const QueryResult& result) {
  std::vector<std::vector<std::string>> out;
  out.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    std::vector<std::string> rendered;
    rendered.reserve(row.size());
    for (const Value& v : row) rendered.push_back(v.ToString());
    out.push_back(std::move(rendered));
  }
  return out;
}

void ExpectResultsIdentical(const QueryResult& expect,
                            const QueryResult& got) {
  ASSERT_EQ(expect.rows.size(), got.rows.size());
  for (size_t r = 0; r < expect.rows.size(); ++r) {
    EXPECT_EQ(CompareValueVec(expect.rows[r], got.rows[r]), 0)
        << "row " << r << ": " << RowToString(expect.rows[r]) << " vs "
        << RowToString(got.rows[r]);
  }
}

const char* kTailQueries[] = {
    // Parallel-safe fold: COUNT/SUM-int/MIN/MAX over a string GROUP BY.
    "SELECT b.tag, count(*) AS n, sum(b.val) AS s, min(b.val) AS lo, "
    "max(b.val) AS hi FROM e1 a, e2 b WHERE a.src = 'root' AND "
    "b.src = a.dst GROUP BY b.tag ORDER BY 1",
    // FP-finalized aggregates must take the serial fold — same answers.
    "SELECT b.tag, avg(b.val) AS m FROM e1 a, e2 b WHERE a.src = 'root' "
    "AND b.src = a.dst GROUP BY b.tag ORDER BY 1",
    // DISTINCT aggregate + HAVING.
    "SELECT b.tag, count(DISTINCT b.val) AS d FROM e1 a, e2 b WHERE "
    "a.src = 'root' AND b.src = a.dst GROUP BY b.tag "
    "HAVING count(DISTINCT b.val) > 10 ORDER BY 2 DESC, 1",
    // DISTINCT projection with ORDER BY + LIMIT on string columns.
    "SELECT DISTINCT b.tag, b.src FROM e1 a, e2 b WHERE a.src = 'root' "
    "AND b.src = a.dst ORDER BY 2, 1 LIMIT 40",
    // Bag-expansion projection, encoded-key sort, LIMIT.
    "SELECT b.src, b.val FROM e1 a, e2 b WHERE a.src = 'root' AND "
    "b.src = a.dst ORDER BY 1 DESC, 2 LIMIT 100",
    // Global aggregate (no GROUP BY).
    "SELECT count(*) AS n, sum(b.val) AS s FROM e1 a, e2 b WHERE "
    "a.src = 'root' AND b.src = a.dst",
};

TEST(ColumnarTailTest, BitIdenticalToScalarTailAcrossFoldModes) {
  TailEnv env = MakeTailEnv();
  BoundedExecutor executor(env.catalog.get());
  TaskPool pool(3);
  const uint64_t budgets[] = {0, 40};

  for (const char* sql : kTailQueries) {
    SCOPED_TRACE(sql);
    auto coverage = env.session->Check(sql);
    ASSERT_TRUE(coverage.ok()) << coverage.status().ToString();
    ASSERT_TRUE(coverage->covered) << coverage->reason;
    auto bound = env.db->Bind(sql);
    ASSERT_TRUE(bound.ok());
    for (uint64_t budget : budgets) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      BoundedExecOptions ref_opts;
      ref_opts.fetch_budget = budget;
      auto reference =
          ExecuteReference(*env.catalog, *bound, coverage->plan, ref_opts);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();

      // Columnar tail, serial and pool-parallel fold.
      for (TaskPool* p : {static_cast<TaskPool*>(nullptr), &pool}) {
        BoundedExecOptions opts;
        opts.fetch_budget = budget;
        opts.probe_pool = p;
        auto got = executor.Execute(*bound, coverage->plan, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectResultsIdentical(*reference, *got);
      }
    }
  }
}

TEST(ColumnarTailTest, StringOrderByIsByteOrderOverFirstAppearanceCodes) {
  TailEnv env = MakeTailEnv();
  BoundedExecutor executor(env.catalog.get());
  const char* sql =
      "SELECT b.src, b.tag FROM e1 a, e2 b WHERE a.src = 'root' AND "
      "b.src = a.dst ORDER BY 1, 2 LIMIT 50";
  auto coverage = env.session->Check(sql);
  ASSERT_TRUE(coverage.ok());
  ASSERT_TRUE(coverage->covered) << coverage->reason;
  auto bound = env.db->Bind(sql);
  ASSERT_TRUE(bound.ok());

  auto result = executor.Execute(*bound, coverage->plan, {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 50u);
  for (size_t r = 1; r < result->rows.size(); ++r) {
    EXPECT_LE(CompareValueVec(result->rows[r - 1], result->rows[r]), 0)
        << "row " << r;
  }
  auto again = executor.Execute(*bound, coverage->plan, {});
  ASSERT_TRUE(again.ok());
  ExpectResultsIdentical(*result, *again);
  auto conventional = env.db->Query(sql);
  ASSERT_TRUE(conventional.ok()) << conventional.status().ToString();
  EXPECT_EQ(Render(*result), Render(*conventional));
}

TEST(ColumnarTailTest, AnswersDoNotDependOnInternOrder) {
  // The same rows, with e1's node names interned in descending and in
  // ascending byte order: codes differ, answers must not.
  TailEnv out_of_order = MakeTailEnv(/*sorted_inserts=*/false);
  TailEnv in_order = MakeTailEnv(/*sorted_inserts=*/true);
  BoundedExecutor executor(out_of_order.catalog.get());
  BoundedExecutor in_order_executor(in_order.catalog.get());
  size_t covered = 0;
  for (const char* sql : kTailQueries) {
    SCOPED_TRACE(sql);
    auto coverage = out_of_order.session->Check(sql);
    ASSERT_TRUE(coverage.ok());
    if (!coverage->covered) continue;
    ++covered;
    auto bound = out_of_order.db->Bind(sql);
    ASSERT_TRUE(bound.ok());
    auto result = executor.Execute(*bound, coverage->plan);
    ASSERT_TRUE(result.ok());
    auto reference =
        ExecuteReference(*out_of_order.catalog, *bound, coverage->plan);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(Render(*reference), Render(*result));

    auto in_order_coverage = in_order.session->Check(sql);
    ASSERT_TRUE(in_order_coverage.ok());
    ASSERT_TRUE(in_order_coverage->covered);
    auto in_order_bound = in_order.db->Bind(sql);
    ASSERT_TRUE(in_order_bound.ok());
    auto in_order_result =
        in_order_executor.Execute(*in_order_bound, in_order_coverage->plan);
    ASSERT_TRUE(in_order_result.ok());
    EXPECT_EQ(Render(*in_order_result), Render(*result));
  }
  EXPECT_GT(covered, 0u);
}

TEST(ColumnarTailTest, TelemetryCountersAdvance) {
  TailEnv env = MakeTailEnv();
  BoundedExecutor executor(env.catalog.get());
  const char* sql =
      "SELECT b.tag, count(*) AS n FROM e1 a, e2 b WHERE a.src = 'root' "
      "AND b.src = a.dst GROUP BY b.tag";
  auto coverage = env.session->Check(sql);
  ASSERT_TRUE(coverage.ok());
  ASSERT_TRUE(coverage->covered);
  auto bound = env.db->Bind(sql);
  ASSERT_TRUE(bound.ok());

  uint64_t batches = TailBatchesTotal().load();
  uint64_t grouped = TailRowsGrouped().load();
  auto result = executor.Execute(*bound, coverage->plan, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(TailBatchesTotal().load(), batches + 1);
  EXPECT_GE(TailRowsGrouped().load(), grouped + 4800)
      << "every T row is grouped without materialization";
}

// Integer SUM is exact: the total decides, not the partial sums. A total
// outside INT64 answers NULL (the rule of row-level `+`); partial sums that
// overflow on the way to a total that fits do not change it. Serial and
// chunk-parallel folds (4800 rows) and the conventional engine agree.
TEST(ColumnarTailTest, IntegerSumIsExactAndNullOutsideInt64) {
  const int64_t big = 5000000000000000000;  // 5e18; two of them overflow
  Database db;
  ASSERT_TRUE(db.CreateTable("s", Schema({{"g", TypeId::kInt64},
                                          {"id", TypeId::kInt64},
                                          {"v", TypeId::kInt64}}))
                  .ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 4800; ++i) {
    rows.push_back({I(1), I(i), I(i < 2400 ? big : -big)});  // Σ = 0
    if (i < 3) rows.push_back({I(2), I(i), I(big)});         // Σ = 1.5e19
  }
  for (int i = 0; i < 3; ++i) rows.push_back({I(3), I(0), I(big)});  // w = 3
  rows.push_back({I(4), I(0), I(big)});
  rows.push_back({I(4), I(1), I(big)});
  rows.push_back({I(4), I(2), I(-big)});  // Σ = 5e18 via a 1e19 prefix
  ASSERT_TRUE(db.InsertBatch("s", std::move(rows)).ok());
  AsCatalog catalog(&db);
  ASSERT_TRUE(catalog.Register({"sg", "s", {"g"}, {"id", "v"}, 4800}).ok());
  BeasSession session(&db, &catalog);
  BoundedExecutor executor(&catalog);
  TaskPool pool(3);

  const std::pair<int64_t, Value> cases[] = {
      {1, I(0)},
      {2, Value::Null()},
      {3, Value::Null()},
      {4, I(big)},
  };
  for (const auto& [g, expect] : cases) {
    std::string sql = "SELECT count(*), sum(s.v) FROM s WHERE s.g = " +
                      std::to_string(g);
    SCOPED_TRACE(sql);
    auto coverage = session.Check(sql);
    ASSERT_TRUE(coverage.ok()) << coverage.status().ToString();
    ASSERT_TRUE(coverage->covered) << coverage->reason;
    auto bound = db.Bind(sql);
    ASSERT_TRUE(bound.ok());
    auto conventional = db.Query(sql);
    ASSERT_TRUE(conventional.ok()) << conventional.status().ToString();
    ASSERT_EQ(conventional->rows.size(), 1u);
    EXPECT_EQ(conventional->rows[0][1], expect);
    for (TaskPool* p : {static_cast<TaskPool*>(nullptr), &pool}) {
      BoundedExecOptions opts;
      opts.probe_pool = p;
      auto got = executor.Execute(*bound, coverage->plan, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->rows, conventional->rows);
    }
  }
}

// `%` with a DOUBLE operand was the one tail expression ExprProgram does
// not compile, and so the one bound-SQL route into the scalar tail. The
// binder now refuses it, in the SELECT list and inside an aggregate alike,
// so such a tail never reaches the executor.
TEST(ColumnarTailTest, DoubleModuloTailsAreRefusedAtBind) {
  TailEnv env = MakeTailEnv();
  const char* queries[] = {
      "SELECT b.tag, NULL % 2.0 AS z FROM e1 a, e2 b WHERE a.src = 'root' "
      "AND b.src = a.dst",
      "SELECT b.tag, count(*) AS n, max(NULL % 2.0) AS z FROM e1 a, e2 b "
      "WHERE a.src = 'root' AND b.src = a.dst GROUP BY b.tag",
  };
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    auto bound = env.db->Bind(sql);
    ASSERT_FALSE(bound.ok());
    EXPECT_EQ(bound.status().code(), StatusCode::kBindError);
    auto coverage = env.session->Check(sql);
    ASSERT_FALSE(coverage.ok());
    EXPECT_EQ(coverage.status().code(), StatusCode::kBindError);
    auto oracle = env.db->Query(sql);
    ASSERT_FALSE(oracle.ok());
    EXPECT_EQ(oracle.status().code(), StatusCode::kBindError);
  }
}

}  // namespace
}  // namespace beas
