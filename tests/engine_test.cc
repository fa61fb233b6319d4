#include <gtest/gtest.h>

#include "engine/database.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::D;
using testing_util::Dt;
using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;
using testing_util::S;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MakeTable(&db_, "emp",
              Schema({{"id", TypeId::kInt64},
                      {"dept", TypeId::kInt64},
                      {"name", TypeId::kString},
                      {"salary", TypeId::kDouble}}),
              {
                  {I(1), I(10), S("ann"), D(100)},
                  {I(2), I(10), S("bob"), D(200)},
                  {I(3), I(20), S("cat"), D(300)},
                  {I(4), I(20), S("dan"), D(250)},
                  {I(5), N(), S("eve"), D(150)},
              });
    MakeTable(&db_, "dept",
              Schema({{"id", TypeId::kInt64}, {"dname", TypeId::kString}}),
              {
                  {I(10), S("eng")},
                  {I(20), S("ops")},
                  {I(30), S("hr")},
              });
  }

  QueryResult MustQuery(const std::string& sql,
                        const EngineProfile& profile =
                            EngineProfile::PostgresLike()) {
    auto r = db_.Query(sql, profile);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  Database db_;
};

TEST_F(EngineTest, SimpleProjection) {
  QueryResult r = MustQuery("SELECT emp.name FROM emp WHERE emp.id = 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], S("cat"));
  EXPECT_EQ(r.column_names[0], "emp.name");
}

TEST_F(EngineTest, FilterComparisons) {
  EXPECT_EQ(MustQuery("SELECT emp.id FROM emp WHERE emp.salary > 200.0")
                .rows.size(),
            2u);
  EXPECT_EQ(MustQuery("SELECT emp.id FROM emp WHERE emp.salary >= 200.0")
                .rows.size(),
            3u);
  EXPECT_EQ(MustQuery("SELECT emp.id FROM emp WHERE emp.name <> 'ann'")
                .rows.size(),
            4u);
}

TEST_F(EngineTest, NullNeverMatchesEquality) {
  EXPECT_EQ(MustQuery("SELECT emp.id FROM emp WHERE emp.dept = 10").rows.size(),
            2u)
      << "eve's NULL dept must not match";
}

TEST_F(EngineTest, IsNullPredicate) {
  QueryResult r = MustQuery("SELECT emp.id FROM emp WHERE emp.dept IS NULL");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], I(5));
  EXPECT_EQ(
      MustQuery("SELECT emp.id FROM emp WHERE emp.dept IS NOT NULL").rows.size(),
      4u);
}

TEST_F(EngineTest, HashJoinMatchesAndSkipsNull) {
  QueryResult r = MustQuery(
      "SELECT emp.name, dept.dname FROM emp, dept WHERE emp.dept = dept.id");
  EXPECT_EQ(r.rows.size(), 4u) << "NULL dept joins nothing; hr matches nobody";
}

TEST_F(EngineTest, JoinSameResultAcrossProfiles) {
  const char* sql =
      "SELECT emp.name, dept.dname FROM emp, dept WHERE emp.dept = dept.id "
      "AND emp.salary > 150.0 ORDER BY 1";
  QueryResult pg = MustQuery(sql, EngineProfile::PostgresLike());
  QueryResult my = MustQuery(sql, EngineProfile::MySqlLike());
  QueryResult maria = MustQuery(sql, EngineProfile::MariaDbLike());
  EXPECT_TRUE(RowMultisetsEqual(pg.rows, my.rows));
  EXPECT_TRUE(RowMultisetsEqual(pg.rows, maria.rows));
  EXPECT_EQ(pg.rows.size(), 3u);
}

TEST_F(EngineTest, CrossJoinBagSemantics) {
  QueryResult r = MustQuery("SELECT emp.id, dept.id FROM emp, dept");
  EXPECT_EQ(r.rows.size(), 15u);
}

TEST_F(EngineTest, AggregateGlobal) {
  QueryResult r = MustQuery(
      "SELECT count(*), sum(emp.salary), avg(emp.salary), min(emp.salary), "
      "max(emp.salary) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], I(5));
  EXPECT_EQ(r.rows[0][1].AsDouble(), 1000.0);
  EXPECT_EQ(r.rows[0][2].AsDouble(), 200.0);
  EXPECT_EQ(r.rows[0][3].AsDouble(), 100.0);
  EXPECT_EQ(r.rows[0][4].AsDouble(), 300.0);
}

TEST_F(EngineTest, AggregateEmptyInput) {
  QueryResult r =
      MustQuery("SELECT count(*), sum(emp.salary) FROM emp WHERE emp.id > 99");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], I(0));
  EXPECT_TRUE(r.rows[0][1].is_null()) << "SUM over empty set is NULL";
}

TEST_F(EngineTest, GroupByWithHaving) {
  QueryResult r = MustQuery(
      "SELECT emp.dept, count(*) AS c, sum(emp.salary) AS s FROM emp "
      "WHERE emp.dept IS NOT NULL GROUP BY emp.dept HAVING sum(emp.salary) > "
      "350.0 ORDER BY emp.dept");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], I(20));
  EXPECT_EQ(r.rows[0][1], I(2));
  EXPECT_EQ(r.rows[0][2].AsDouble(), 550.0);
}

TEST_F(EngineTest, CountDistinct) {
  QueryResult r = MustQuery("SELECT count(DISTINCT emp.dept) FROM emp");
  EXPECT_EQ(r.rows[0][0], I(2)) << "NULLs not counted";
}

TEST_F(EngineTest, CountColumnSkipsNulls) {
  QueryResult r = MustQuery("SELECT count(emp.dept) FROM emp");
  EXPECT_EQ(r.rows[0][0], I(4));
}

TEST_F(EngineTest, DistinctRows) {
  QueryResult r = MustQuery("SELECT DISTINCT emp.dept FROM emp "
                            "WHERE emp.dept IS NOT NULL");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(EngineTest, OrderByAscDescAndLimit) {
  QueryResult r = MustQuery(
      "SELECT emp.name, emp.salary FROM emp ORDER BY emp.salary DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0], S("cat"));
  EXPECT_EQ(r.rows[1][0], S("dan"));
}

TEST_F(EngineTest, OrderByStableMultiKey) {
  QueryResult r = MustQuery(
      "SELECT emp.dept, emp.name FROM emp WHERE emp.dept IS NOT NULL "
      "ORDER BY emp.dept ASC, emp.name DESC");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][1], S("bob"));
  EXPECT_EQ(r.rows[1][1], S("ann"));
}

TEST_F(EngineTest, ArithmeticInProjection) {
  QueryResult r = MustQuery(
      "SELECT emp.salary * 2 + 1 FROM emp WHERE emp.id = 1");
  EXPECT_EQ(r.rows[0][0].AsDouble(), 201.0);
}

TEST_F(EngineTest, BetweenAndInFilters) {
  EXPECT_EQ(MustQuery("SELECT emp.id FROM emp WHERE emp.salary BETWEEN 150.0 "
                      "AND 250.0")
                .rows.size(),
            3u);
  EXPECT_EQ(
      MustQuery("SELECT emp.id FROM emp WHERE emp.id IN (1, 3, 9)").rows.size(),
      2u);
}

TEST_F(EngineTest, LiteralOnlyPredicate) {
  EXPECT_EQ(MustQuery("SELECT emp.id FROM emp WHERE 1 = 0").rows.size(), 0u);
  EXPECT_EQ(MustQuery("SELECT emp.id FROM emp WHERE 1 = 1").rows.size(), 5u);
}

TEST_F(EngineTest, TuplesAccessedCounted) {
  QueryResult r = MustQuery("SELECT emp.id FROM emp");
  EXPECT_EQ(r.tuples_accessed, 5u);
}

TEST_F(EngineTest, BnlJoinRescansCountTuples) {
  // MySQL-like: buffer 128 with 5 outer rows -> a single pass; both tables
  // scanned once. Force multiple passes with a tiny buffer via profile copy.
  EngineProfile tiny = EngineProfile::MySqlLike();
  tiny.join_buffer_rows = 2;
  QueryResult r = MustQuery(
      "SELECT emp.name, dept.dname FROM emp, dept WHERE emp.dept = dept.id",
      tiny);
  // 5 outer rows / buffer 2 = 3 passes over dept(3 rows) = 9 + emp scan 5.
  EXPECT_EQ(r.tuples_accessed, 14u);
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(EngineTest, PlanTextContainsOperators) {
  QueryResult r = MustQuery(
      "SELECT emp.name FROM emp, dept WHERE emp.dept = dept.id "
      "AND emp.salary > 100.0");
  EXPECT_NE(r.plan_text.find("HashJoin"), std::string::npos) << r.plan_text;
  EXPECT_NE(r.plan_text.find("SeqScan"), std::string::npos);
  QueryResult m = MustQuery(
      "SELECT emp.name FROM emp, dept WHERE emp.dept = dept.id",
      EngineProfile::MySqlLike());
  EXPECT_NE(m.plan_text.find("BNLJoin"), std::string::npos) << m.plan_text;
}

TEST_F(EngineTest, InsertAndDeleteAffectQueries) {
  ASSERT_TRUE(db_.Insert("dept", {I(40), S("lab")}).ok());
  EXPECT_EQ(MustQuery("SELECT dept.id FROM dept").rows.size(), 4u);
  ASSERT_TRUE(db_.DeleteWhereEquals("dept", {I(40), S("lab")}).ok());
  EXPECT_EQ(MustQuery("SELECT dept.id FROM dept").rows.size(), 3u);
  EXPECT_EQ(db_.DeleteWhereEquals("dept", {I(99), S("x")}).code(),
            StatusCode::kNotFound);
}

// Deletion is by full-row identity under Value equality: NULL matches
// NULL, an INT probe matches the equal DOUBLE, and a probe that no stored
// row can equal (a string the table never held, the wrong arity) deletes
// nothing.
TEST_F(EngineTest, DeleteWhereEqualsMatchesByValueEquality) {
  MakeTable(&db_, "mixed",
            Schema({{"k", TypeId::kInt64},
                    {"price", TypeId::kDouble},
                    {"tag", TypeId::kString}}),
            {{I(1), D(7), S("a")}, {I(2), D(2.5), N()}, {N(), D(3), S("b")}});
  auto count = [&] {
    return MustQuery("SELECT mixed.k FROM mixed").rows.size();
  };
  EXPECT_EQ(db_.DeleteWhereEquals("mixed", {I(1), D(7), S("zz")}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.DeleteWhereEquals("mixed", {I(1), D(7)}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.DeleteWhereEquals("mixed", {I(1), D(7), S("a"), N()}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.DeleteWhereEquals("mixed", {I(2), D(2.5), S("a")}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(count(), 3u);
  ASSERT_TRUE(db_.DeleteWhereEquals("mixed", {I(2), D(2.5), N()}).ok());
  ASSERT_TRUE(db_.DeleteWhereEquals("mixed", {N(), I(3), S("b")}).ok());
  ASSERT_TRUE(db_.DeleteWhereEquals("mixed", {I(1), I(7), S("a")}).ok());
  EXPECT_EQ(count(), 0u);
  EXPECT_EQ(db_.DeleteWhereEquals("mixed", {I(1), D(7), S("a")}).code(),
            StatusCode::kNotFound);
}

TEST_F(EngineTest, WriteHooksFire) {
  int inserts = 0;
  int deletes = 0;
  db_.RegisterWriteHook([&](const std::string& table, const Row&, bool ins) {
    EXPECT_EQ(table, "dept");
    ins ? ++inserts : ++deletes;
  });
  ASSERT_TRUE(db_.Insert("dept", {I(50), S("x")}).ok());
  ASSERT_TRUE(db_.DeleteWhereEquals("dept", {I(50), S("x")}).ok());
  EXPECT_EQ(inserts, 1);
  EXPECT_EQ(deletes, 1);
}

TEST_F(EngineTest, ThreeWayJoin) {
  MakeTable(&db_, "bonus",
            Schema({{"dept", TypeId::kInt64}, {"amount", TypeId::kDouble}}),
            {{I(10), D(11)}, {I(20), D(22)}});
  const char* sql =
      "SELECT emp.name, dept.dname, bonus.amount FROM emp, dept, bonus "
      "WHERE emp.dept = dept.id AND dept.id = bonus.dept ORDER BY 1";
  QueryResult pg = MustQuery(sql);
  QueryResult my = MustQuery(sql, EngineProfile::MySqlLike());
  EXPECT_EQ(pg.rows.size(), 4u);
  EXPECT_TRUE(RowMultisetsEqual(pg.rows, my.rows));
}

TEST_F(EngineTest, NaiveReferenceAgreesOnJoins) {
  const char* sql =
      "SELECT emp.name, dept.dname FROM emp, dept "
      "WHERE emp.dept = dept.id AND emp.salary >= 150.0";
  auto bound = db_.Bind(sql);
  ASSERT_TRUE(bound.ok());
  auto naive = testing_util::NaiveEvaluate(*bound);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  QueryResult r = MustQuery(sql);
  EXPECT_TRUE(RowMultisetsEqual(r.rows, *naive));
}

}  // namespace
}  // namespace beas
