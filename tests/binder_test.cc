#include <gtest/gtest.h>

#include "binder/binder.h"
#include "engine/database.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::I;
using testing_util::MakeTable;
using testing_util::S;

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_NE(MakeTable(&db_, "call",
                        Schema({{"pnum", TypeId::kInt64},
                                {"recnum", TypeId::kInt64},
                                {"date", TypeId::kDate},
                                {"region", TypeId::kString}}),
                        {}),
              nullptr);
    ASSERT_NE(MakeTable(&db_, "package",
                        Schema({{"pnum", TypeId::kInt64},
                                {"pid", TypeId::kInt64},
                                {"year", TypeId::kInt64},
                                {"fee", TypeId::kDouble}}),
                        {}),
              nullptr);
  }

  BoundQuery MustBind(const std::string& sql) {
    auto q = db_.Bind(sql);
    EXPECT_TRUE(q.ok()) << sql << " -> " << q.status().ToString();
    return q.ok() ? std::move(*q) : BoundQuery{};
  }

  Status BindError(const std::string& sql) {
    auto q = db_.Bind(sql);
    EXPECT_FALSE(q.ok()) << sql << " should not bind";
    return q.ok() ? Status::OK() : q.status();
  }

  Database db_;
};

TEST_F(BinderTest, ResolvesAtomsAndOffsets) {
  BoundQuery q = MustBind("SELECT call.pnum FROM call, package");
  ASSERT_EQ(q.atoms.size(), 2u);
  EXPECT_EQ(q.atom_offsets[0], 0u);
  EXPECT_EQ(q.atom_offsets[1], 4u);
  EXPECT_EQ(q.total_columns, 8u);
}

TEST_F(BinderTest, UnknownTableAndColumn) {
  EXPECT_EQ(BindError("SELECT x.a FROM nope x").code(), StatusCode::kBindError);
  EXPECT_EQ(BindError("SELECT call.bogus FROM call").code(),
            StatusCode::kBindError);
  EXPECT_EQ(BindError("SELECT bogus FROM call").code(), StatusCode::kBindError);
}

TEST_F(BinderTest, AmbiguousUnqualifiedColumn) {
  EXPECT_EQ(BindError("SELECT pnum FROM call, package").code(),
            StatusCode::kBindError);
}

TEST_F(BinderTest, UnqualifiedUniqueColumnResolves) {
  BoundQuery q = MustBind("SELECT region FROM call, package");
  EXPECT_EQ(q.outputs[0].name, "region");
}

TEST_F(BinderTest, DuplicateAliasRejected) {
  EXPECT_EQ(BindError("SELECT c.pnum FROM call c, package c").code(),
            StatusCode::kBindError);
}

TEST_F(BinderTest, SelfJoinViaAliases) {
  BoundQuery q = MustBind(
      "SELECT a.pnum FROM call a, call b WHERE a.pnum = b.recnum");
  ASSERT_EQ(q.atoms.size(), 2u);
  EXPECT_EQ(q.conjuncts[0].cls, ConjunctClass::kEqAttr);
  EXPECT_EQ(q.conjuncts[0].lhs.atom, 0u);
  EXPECT_EQ(q.conjuncts[0].rhs.atom, 1u);
}

TEST_F(BinderTest, CnfSplitAndClassification) {
  BoundQuery q = MustBind(
      "SELECT call.region FROM call, package "
      "WHERE call.pnum = package.pnum AND call.pnum = 7 "
      "AND package.pid IN (1, 2) AND call.recnum > 5 "
      "AND (call.region = 'R1' OR call.region = 'R2')");
  ASSERT_EQ(q.conjuncts.size(), 5u);
  EXPECT_EQ(q.conjuncts[0].cls, ConjunctClass::kEqAttr);
  EXPECT_EQ(q.conjuncts[1].cls, ConjunctClass::kEqConst);
  EXPECT_EQ(q.conjuncts[1].const_val, I(7));
  EXPECT_EQ(q.conjuncts[2].cls, ConjunctClass::kInConst);
  EXPECT_EQ(q.conjuncts[2].in_vals.size(), 2u);
  EXPECT_EQ(q.conjuncts[3].cls, ConjunctClass::kOther);
  EXPECT_EQ(q.conjuncts[4].cls, ConjunctClass::kOther) << "OR stays whole";
}

TEST_F(BinderTest, ConstOnLeftSideAlsoClassified) {
  BoundQuery q = MustBind("SELECT call.pnum FROM call WHERE 7 = call.pnum");
  EXPECT_EQ(q.conjuncts[0].cls, ConjunctClass::kEqConst);
  EXPECT_EQ(q.conjuncts[0].const_val, I(7));
}

TEST_F(BinderTest, DateLiteralCoercion) {
  BoundQuery q = MustBind(
      "SELECT call.pnum FROM call WHERE call.date = '2016-03-15'");
  EXPECT_EQ(q.conjuncts[0].cls, ConjunctClass::kEqConst);
  EXPECT_EQ(q.conjuncts[0].const_val.type(), TypeId::kDate);
  EXPECT_EQ(q.conjuncts[0].const_val.AsDate(), 20160315);
}

TEST_F(BinderTest, DateCoercionInListAndBetween) {
  BoundQuery q = MustBind(
      "SELECT call.pnum FROM call WHERE call.date IN ('2016-03-01', "
      "'2016-03-02') AND call.date BETWEEN '2016-03-01' AND '2016-03-31'");
  EXPECT_EQ(q.conjuncts[0].cls, ConjunctClass::kInConst);
  EXPECT_EQ(q.conjuncts[0].in_vals[0].type(), TypeId::kDate);
}

TEST_F(BinderTest, IncomparableTypesRejected) {
  EXPECT_EQ(BindError("SELECT call.pnum FROM call WHERE call.region = 5").code(),
            StatusCode::kBindError);
  EXPECT_EQ(
      BindError("SELECT call.pnum FROM call WHERE call.region + 1 > 2").code(),
      StatusCode::kBindError);
}

TEST_F(BinderTest, AggregatesBindWithTypes) {
  BoundQuery q = MustBind(
      "SELECT count(*), sum(package.fee), avg(package.fee), min(package.pid), "
      "max(package.pid), count(DISTINCT package.pid) FROM package");
  ASSERT_EQ(q.aggregates.size(), 6u);
  EXPECT_EQ(q.outputs[0].type, TypeId::kInt64);
  EXPECT_EQ(q.outputs[1].type, TypeId::kDouble);
  EXPECT_EQ(q.outputs[2].type, TypeId::kDouble);
  EXPECT_EQ(q.outputs[3].type, TypeId::kInt64);
  EXPECT_TRUE(q.aggregates[5].distinct);
  EXPECT_TRUE(q.HasAggregates());
}

TEST_F(BinderTest, SumOfStringRejected) {
  EXPECT_EQ(BindError("SELECT sum(call.region) FROM call").code(),
            StatusCode::kBindError);
}

TEST_F(BinderTest, NonGroupedOutputRejected) {
  EXPECT_EQ(BindError("SELECT call.region, count(*) FROM call").code(),
            StatusCode::kBindError);
  // With GROUP BY it binds, and the scalar output gets its group slot.
  BoundQuery q = MustBind(
      "SELECT call.region, count(*) FROM call GROUP BY call.region");
  EXPECT_EQ(q.outputs[0].slot, 0u);
  EXPECT_EQ(q.outputs[1].agg, AggFn::kCountStar);
}

TEST_F(BinderTest, HavingReusesVisibleAggregate) {
  BoundQuery q = MustBind(
      "SELECT call.region, count(*) AS c FROM call GROUP BY call.region "
      "HAVING count(*) > 2");
  EXPECT_EQ(q.aggregates.size(), 1u) << "no hidden aggregate needed";
  ASSERT_NE(q.having, nullptr);
}

TEST_F(BinderTest, HavingAddsHiddenAggregate) {
  BoundQuery q = MustBind(
      "SELECT call.region, count(*) FROM call GROUP BY call.region "
      "HAVING max(call.recnum) > 100");
  EXPECT_EQ(q.aggregates.size(), 2u);
  // Output list still shows one aggregate.
  EXPECT_EQ(q.outputs.size(), 2u);
}

TEST_F(BinderTest, HavingNonGroupedColumnRejected) {
  EXPECT_EQ(BindError("SELECT call.region, count(*) FROM call GROUP BY "
                      "call.region HAVING call.recnum > 2")
                .code(),
            StatusCode::kBindError);
  EXPECT_EQ(BindError("SELECT call.pnum FROM call HAVING count(*) > 1").code(),
            StatusCode::kBindError)
      << "HAVING requires aggregation";
}

// HAVING operators bind through the same checked code as WHERE and SELECT:
// an ill-typed operand fails at bind, for every database, instead of at
// run time once some group exists.
TEST_F(BinderTest, HavingOperatorsAreTypeChecked) {
  for (const char* sql : {
           "SELECT call.region FROM call GROUP BY call.region "
           "HAVING call.region + 1 > 2",
           "SELECT call.region FROM call GROUP BY call.region "
           "HAVING -call.region = 'a'",
           "SELECT call.region FROM call GROUP BY call.region "
           "HAVING count(*) = call.region",
           "SELECT call.region FROM call GROUP BY call.region "
           "HAVING count(*) BETWEEN 'a' AND 'b'",
       }) {
    EXPECT_EQ(BindError(sql).code(), StatusCode::kBindError) << sql;
  }
}

// ...and coerce literals the same way: a date string compared with a DATE
// aggregate is a DATE, as it is in WHERE.
TEST_F(BinderTest, HavingCoercesDateLiterals) {
  using testing_util::Dt;
  for (Row row : std::vector<Row>{{I(1), I(10), Dt("2016-02-20"), S("R1")},
                                  {I(2), I(11), Dt("2016-03-05"), S("R1")},
                                  {I(3), I(12), Dt("2016-02-27"), S("R2")},
                                  {I(4), I(13), Dt("2016-03-01"), S("R3")}}) {
    ASSERT_TRUE(db_.Insert("call", std::move(row)).ok());
  }
  const char* sql =
      "SELECT call.region, count(*) FROM call GROUP BY call.region "
      "HAVING max(call.date) >= '2016-03-01' ORDER BY 1";
  BoundQuery q = MustBind(sql);
  ASSERT_NE(q.having, nullptr);
  EXPECT_EQ(q.having->children[1]->literal.type(), TypeId::kDate);
  auto result = db_.Query(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows, (std::vector<Row>{{S("R1"), I(2)}, {S("R3"), I(1)}}));
}

TEST_F(BinderTest, ModuloOfDoubleRejectedAtBind) {
  // `%` is integer-only; a DOUBLE operand fails here for every row, not at
  // run time for whichever rows the data happens to produce.
  for (const char* sql : {
           "SELECT package.fee % 2 FROM package",
           "SELECT package.pid FROM package WHERE package.pid % 2.0 = 1",
           "SELECT NULL % 2.0 FROM package",
           "SELECT package.pnum, sum(package.fee) FROM package GROUP BY "
           "package.pnum HAVING sum(package.fee) % 2 = 1",
           "SELECT package.pnum, count(*) FROM package GROUP BY "
           "package.pnum HAVING count(*) % 2.0 = 1",
       }) {
    Status st = BindError(sql);
    EXPECT_EQ(st.code(), StatusCode::kBindError) << sql;
    EXPECT_NE(st.message().find("% requires integer operands"),
              std::string::npos)
        << st.message();
  }
  MustBind("SELECT package.pid % 2 FROM package");
  MustBind("SELECT NULL % 2 FROM package");
  MustBind("SELECT package.pnum, count(*) FROM package GROUP BY "
           "package.pnum HAVING count(*) % 2 = 1");
}

TEST_F(BinderTest, OrderByAliasPositionAndExpr) {
  BoundQuery q = MustBind(
      "SELECT call.region AS r, call.pnum FROM call "
      "ORDER BY r DESC, 2 ASC, call.pnum");
  ASSERT_EQ(q.order_by.size(), 3u);
  EXPECT_EQ(q.order_by[0].output_index, 0u);
  EXPECT_FALSE(q.order_by[0].asc);
  EXPECT_EQ(q.order_by[1].output_index, 1u);
  EXPECT_EQ(q.order_by[2].output_index, 1u) << "structural match";
}

TEST_F(BinderTest, OrderByAggregateMatches) {
  BoundQuery q = MustBind(
      "SELECT call.region, count(*) FROM call GROUP BY call.region "
      "ORDER BY count(*) DESC");
  EXPECT_EQ(q.order_by[0].output_index, 1u);
}

TEST_F(BinderTest, OrderByUnknownRejected) {
  EXPECT_EQ(
      BindError("SELECT call.region FROM call ORDER BY call.pnum").code(),
      StatusCode::kBindError)
      << "ORDER BY must reference the select list";
  EXPECT_EQ(BindError("SELECT call.region FROM call ORDER BY 5").code(),
            StatusCode::kBindError);
}

TEST_F(BinderTest, AggregateInWhereRejected) {
  EXPECT_EQ(
      BindError("SELECT call.pnum FROM call WHERE count(*) > 1").code(),
      StatusCode::kBindError);
}

TEST_F(BinderTest, DistinctWithAggregatesRejected) {
  EXPECT_EQ(BindError("SELECT DISTINCT count(*) FROM call").code(),
            StatusCode::kBindError);
}

TEST_F(BinderTest, AttrsUsedCoversAllClauses) {
  BoundQuery q = MustBind(
      "SELECT call.region FROM call, package WHERE call.pnum = package.pnum "
      "AND package.year = 2016 GROUP BY call.region "
      "HAVING max(package.fee) > 10");
  auto used = q.AttrsUsed();
  // call.pnum, call.region, package.pnum, package.year, package.fee.
  EXPECT_EQ(used.size(), 5u);
}

TEST_F(BinderTest, GlobalIndexRoundTrip) {
  BoundQuery q = MustBind("SELECT call.pnum FROM call, package");
  AttrRef attr{1, 2};
  EXPECT_EQ(q.GlobalIndex(attr), 6u);
  AttrRef back = q.AttrOfGlobal(6);
  EXPECT_EQ(back.atom, 1u);
  EXPECT_EQ(back.col, 2u);
  EXPECT_EQ(q.AttrName(attr), "package.year");
}

TEST_F(BinderTest, OutputNamesDefaultAndAlias) {
  BoundQuery q = MustBind(
      "SELECT call.region, call.pnum AS phone, count(*) AS n FROM call "
      "GROUP BY call.region, call.pnum");
  EXPECT_EQ(q.outputs[0].name, "call.region");
  EXPECT_EQ(q.outputs[1].name, "phone");
  EXPECT_EQ(q.outputs[2].name, "n");
}

}  // namespace
}  // namespace beas
