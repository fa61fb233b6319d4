#include <gtest/gtest.h>

#include "asx/access_schema.h"
#include "bounded/attr_binding.h"
#include "bounded/beas_session.h"
#include "bounded/be_checker.h"
#include "bounded/bounded_executor.h"
#include "bounded/plan_generator.h"
#include "support/reference_executor.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::D;
using testing_util::Dt;
using testing_util::I;
using testing_util::MakeTable;
using testing_util::S;

/// A compact CDR fixture mirroring paper Example 1/2 shapes.
class BoundedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MakeTable(&db_, "call",
              Schema({{"pnum", TypeId::kInt64},
                      {"recnum", TypeId::kInt64},
                      {"date", TypeId::kDate},
                      {"region", TypeId::kString}}),
              {
                  {I(7), I(100), Dt("2016-03-15"), S("R1")},
                  {I(7), I(101), Dt("2016-03-15"), S("R2")},
                  {I(7), I(100), Dt("2016-03-16"), S("R1")},
                  {I(8), I(200), Dt("2016-03-15"), S("R1")},
                  {I(9), I(300), Dt("2016-03-15"), S("R3")},
              });
    MakeTable(&db_, "package",
              Schema({{"pnum", TypeId::kInt64},
                      {"pid", TypeId::kInt64},
                      {"year", TypeId::kInt64}}),
              {
                  {I(7), I(5), I(2016)},
                  {I(7), I(9), I(2016)},
                  {I(8), I(5), I(2016)},
                  {I(9), I(5), I(2015)},
              });
    MakeTable(&db_, "business",
              Schema({{"pnum", TypeId::kInt64},
                      {"type", TypeId::kString},
                      {"region", TypeId::kString}}),
              {
                  {I(7), S("bank"), S("R1")},
                  {I(8), S("bank"), S("R1")},
                  {I(9), S("school"), S("R1")},
              });
    catalog_ = std::make_unique<AsCatalog>(&db_);
    ASSERT_TRUE(catalog_
                    ->Register({"psi1",
                                "call",
                                {"pnum", "date"},
                                {"recnum", "region"},
                                500})
                    .ok());
    ASSERT_TRUE(catalog_
                    ->Register({"psi2",
                                "package",
                                {"pnum", "year"},
                                {"pid"},
                                12})
                    .ok());
    ASSERT_TRUE(catalog_
                    ->Register({"psi3",
                                "business",
                                {"type", "region"},
                                {"pnum"},
                                2000})
                    .ok());
    session_ = std::make_unique<BeasSession>(&db_, catalog_.get());
  }

  BoundQuery MustBind(const std::string& sql) {
    return testing_util::ValueOrThrow(db_.Bind(sql), "bind " + sql);
  }

  CoverageResult MustCheck(const std::string& sql) {
    return testing_util::ValueOrThrow(session_->Check(sql), "check " + sql);
  }

  Database db_;
  std::unique_ptr<AsCatalog> catalog_;
  std::unique_ptr<BeasSession> session_;
};

TEST_F(BoundedTest, AttrBindingEquivalenceClasses) {
  BoundQuery q = MustBind(
      "SELECT call.region FROM call, package WHERE call.pnum = package.pnum "
      "AND package.year = 2016 AND call.recnum IN (1, 2)");
  AttrBindingAnalysis binding(q);
  size_t call_pnum = q.GlobalIndex({0, 0});
  size_t pkg_pnum = q.GlobalIndex({1, 0});
  size_t pkg_year = q.GlobalIndex({1, 2});
  size_t call_rec = q.GlobalIndex({0, 1});
  EXPECT_TRUE(binding.SameClass(call_pnum, pkg_pnum));
  EXPECT_FALSE(binding.SameClass(call_pnum, pkg_year));
  ASSERT_NE(binding.ConstantsOf(pkg_year), nullptr);
  EXPECT_EQ((*binding.ConstantsOf(pkg_year))[0], I(2016));
  ASSERT_NE(binding.ConstantsOf(call_rec), nullptr);
  EXPECT_EQ(binding.ConstantsOf(call_rec)->size(), 2u);
  EXPECT_EQ(binding.ConstantsOf(call_pnum), nullptr);
  EXPECT_FALSE(binding.unsatisfiable());
}

TEST_F(BoundedTest, AttrBindingContradictionDetected) {
  BoundQuery q = MustBind(
      "SELECT call.region FROM call WHERE call.pnum = 1 AND call.pnum = 2");
  AttrBindingAnalysis binding(q);
  EXPECT_TRUE(binding.unsatisfiable());
}

TEST_F(BoundedTest, ConstantPropagatesThroughEqualityChain) {
  BoundQuery q = MustBind(
      "SELECT call.region FROM call, package WHERE call.pnum = package.pnum "
      "AND package.pnum = 7");
  AttrBindingAnalysis binding(q);
  size_t call_pnum = q.GlobalIndex({0, 0});
  ASSERT_NE(binding.ConstantsOf(call_pnum), nullptr);
  EXPECT_EQ((*binding.ConstantsOf(call_pnum))[0], I(7));
}

TEST_F(BoundedTest, SingleFetchCovered) {
  CoverageResult c = MustCheck(
      "SELECT call.recnum FROM call WHERE call.pnum = 7 AND call.date = "
      "'2016-03-15'");
  ASSERT_TRUE(c.covered) << c.reason;
  ASSERT_EQ(c.plan.steps.size(), 1u);
  EXPECT_EQ(c.plan.steps[0].constraint.name, "psi1");
  EXPECT_EQ(c.plan.total_access_bound, 500u);
  EXPECT_EQ(c.plan.total_bound, 500u);
}

TEST_F(BoundedTest, MissingKeyNotCovered) {
  // date missing: psi1 needs both pnum and date bound.
  CoverageResult c =
      MustCheck("SELECT call.recnum FROM call WHERE call.pnum = 7");
  EXPECT_FALSE(c.covered);
  EXPECT_NE(c.reason.find("not covered"), std::string::npos);
}

TEST_F(BoundedTest, NeededColumnOutsideXYNotCovered) {
  // call.region is in psi1's Y, but call has no constraint exposing
  // `duration`-like columns; recnum+region are fine, so ask for a column
  // that no constraint fetches by dropping psi1 for this check.
  AsCatalog empty_catalog(&db_);
  BeasSession session(&db_, &empty_catalog);
  auto c = session.Check(
      "SELECT call.recnum FROM call WHERE call.pnum = 7 AND call.date = "
      "'2016-03-15'");
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->covered) << "no constraints at all";
}

TEST_F(BoundedTest, InListMultipliesBound) {
  CoverageResult c = MustCheck(
      "SELECT call.recnum FROM call WHERE call.pnum = 7 AND call.date IN "
      "('2016-03-15', '2016-03-16', '2016-03-17')");
  ASSERT_TRUE(c.covered) << c.reason;
  EXPECT_EQ(c.plan.total_access_bound, 1500u) << "3 dates x N=500";
}

TEST_F(BoundedTest, PaperExample2ExactArithmetic) {
  // The headline deduction: M = 2,000 + 2,000*12 + 2,000*12*500.
  CoverageResult c = MustCheck(
      "SELECT call.region FROM call, package, business "
      "WHERE business.type = 'bank' AND business.region = 'R1' "
      "AND business.pnum = call.pnum AND call.date = '2016-03-15' "
      "AND call.pnum = package.pnum AND package.year = 2016 "
      "AND package.pid = 5");
  ASSERT_TRUE(c.covered) << c.reason;
  ASSERT_EQ(c.plan.steps.size(), 3u);
  EXPECT_EQ(c.plan.steps[0].constraint.name, "psi3");
  EXPECT_EQ(c.plan.steps[0].step_bound, 2000u);
  EXPECT_EQ(c.plan.steps[1].constraint.name, "psi2");
  EXPECT_EQ(c.plan.steps[1].step_bound, 24000u);
  EXPECT_EQ(c.plan.steps[2].constraint.name, "psi1");
  EXPECT_EQ(c.plan.steps[2].step_bound, 12000000u);
  EXPECT_EQ(c.plan.total_access_bound, 12026000u);
  EXPECT_EQ(c.plan.NumConstraintsUsed(), 3u);
  // The plan annotation renders the paper's numbers.
  BoundQuery q = MustBind(
      "SELECT call.region FROM call, package, business "
      "WHERE business.type = 'bank' AND business.region = 'R1' "
      "AND business.pnum = call.pnum AND call.date = '2016-03-15' "
      "AND call.pnum = package.pnum AND package.year = 2016 "
      "AND package.pid = 5");
  std::string text = c.plan.ToString(q);
  EXPECT_NE(text.find("12,000,000"), std::string::npos) << text;
  EXPECT_NE(text.find("12,026,000"), std::string::npos) << text;
}

TEST_F(BoundedTest, SearchPicksMinimumBoundOrder) {
  // Fetching package before call is cheaper (see Example 2 discussion):
  // 2,000 + 24,000 + 12M  <  2,000 + 1M + 12M.
  CoverageResult c = MustCheck(
      "SELECT call.region FROM call, package, business "
      "WHERE business.type = 'bank' AND business.region = 'R1' "
      "AND business.pnum = call.pnum AND call.date = '2016-03-15' "
      "AND call.pnum = package.pnum AND package.year = 2016");
  ASSERT_TRUE(c.covered);
  EXPECT_EQ(c.plan.steps[1].constraint.table, "package");
  EXPECT_EQ(c.plan.steps[2].constraint.table, "call");
}

// An unsatisfiable plan has no fetch steps, so its tail runs over an empty
// T: global aggregates still answer their one empty-input row (HAVING
// applied), everything else answers nothing — as in the conventional
// engine.
TEST_F(BoundedTest, UnsatisfiableQueryIsCoveredWithEmptyPlan) {
  CoverageResult c = MustCheck(
      "SELECT call.recnum FROM call WHERE call.pnum = 1 AND call.pnum = 2 "
      "AND call.date = '2016-03-15'");
  EXPECT_TRUE(c.covered);
  EXPECT_TRUE(c.unsatisfiable);
  EXPECT_EQ(c.plan.total_access_bound, 0u);
  const std::string never = " WHERE call.pnum = 1 AND call.pnum = 2";
  const std::string queries[] = {
      "SELECT call.recnum FROM call" + never + " AND call.date = '2016-03-15'",
      "SELECT count(*), sum(call.recnum), avg(call.recnum), "
      "min(call.region), max(call.date) FROM call" + never,
      "SELECT count(*) FROM call" + never + " HAVING count(*) = 0",
      "SELECT count(*) FROM call" + never + " HAVING count(*) > 0",
      "SELECT sum(call.recnum), count(DISTINCT call.region) FROM call" +
          never + " HAVING count(*) = 0 OR sum(call.recnum) > 0",
      "SELECT call.region, count(*) FROM call" + never +
          " GROUP BY call.region",
      "SELECT DISTINCT call.region FROM call" + never +
          " ORDER BY call.region LIMIT 2",
      "SELECT call.recnum + 1, call.date FROM call" + never +
          " ORDER BY call.date DESC LIMIT 1",
      "SELECT count(*), sum(package.pid) FROM call, package" + never +
          " AND package.pnum = call.pnum AND package.year = 2016",
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    ASSERT_TRUE(MustCheck(sql).unsatisfiable);
    auto bounded = session_->ExecuteBounded(sql);
    ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
    auto conventional = db_.Query(sql);
    ASSERT_TRUE(conventional.ok()) << conventional.status().ToString();
    EXPECT_EQ(bounded->column_types, conventional->column_types);
    EXPECT_EQ(bounded->rows, conventional->rows);
  }
}

TEST_F(BoundedTest, BudgetCheckWithoutExecution) {
  const char* sql =
      "SELECT call.recnum FROM call WHERE call.pnum = 7 AND call.date = "
      "'2016-03-15'";
  auto report = session_->CheckBudget(sql, 1000);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->covered);
  EXPECT_TRUE(report->within_budget);
  EXPECT_EQ(report->deduced_bound, 500u);
  auto tight = session_->CheckBudget(sql, 100);
  EXPECT_FALSE(tight->within_budget);
  auto uncovered = session_->CheckBudget(
      "SELECT call.recnum FROM call WHERE call.region = 'R1'", 1000);
  EXPECT_FALSE(uncovered->covered);
}

TEST_F(BoundedTest, BoundedMatchesConventional) {
  const char* sql =
      "SELECT call.region FROM call, package, business "
      "WHERE business.type = 'bank' AND business.region = 'R1' "
      "AND business.pnum = call.pnum AND call.date = '2016-03-15' "
      "AND call.pnum = package.pnum AND package.year = 2016 "
      "AND package.pid = 5";
  auto bounded = session_->ExecuteBounded(sql);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  auto conventional = db_.Query(sql);
  ASSERT_TRUE(conventional.ok());
  EXPECT_TRUE(RowMultisetsEqual(bounded->rows, conventional->rows));
  EXPECT_GT(bounded->rows.size(), 0u) << "fixture plants matches";
  EXPECT_LT(bounded->tuples_accessed, conventional->tuples_accessed);
}

TEST_F(BoundedTest, BagSemanticsViaWeights) {
  // pnum 7 called recnum 100 in R1 once and 101 in R2 once on 03-15; add a
  // duplicate partial tuple to verify multiplicity-weighted expansion.
  ASSERT_TRUE(
      db_.Insert("call", {I(7), I(100), Dt("2016-03-15"), S("R1")}).ok());
  // Rebuild index (no maintenance hook in this fixture).
  ASSERT_TRUE(catalog_->Unregister("psi1").ok());
  ASSERT_TRUE(catalog_
                  ->Register({"psi1",
                              "call",
                              {"pnum", "date"},
                              {"recnum", "region"},
                              500})
                  .ok());
  const char* sql =
      "SELECT call.region FROM call WHERE call.pnum = 7 AND call.date = "
      "'2016-03-15'";
  auto bounded = session_->ExecuteBounded(sql);
  auto conventional = db_.Query(sql);
  ASSERT_TRUE(bounded.ok());
  ASSERT_TRUE(conventional.ok());
  EXPECT_EQ(bounded->rows.size(), 3u) << "R1 twice (weight 2) + R2 once";
  EXPECT_TRUE(RowMultisetsEqual(bounded->rows, conventional->rows));
}

TEST_F(BoundedTest, WeightedAggregatesExact) {
  ASSERT_TRUE(
      db_.Insert("call", {I(7), I(100), Dt("2016-03-15"), S("R1")}).ok());
  ASSERT_TRUE(catalog_->Unregister("psi1").ok());
  ASSERT_TRUE(catalog_
                  ->Register({"psi1",
                              "call",
                              {"pnum", "date"},
                              {"recnum", "region"},
                              500})
                  .ok());
  const char* sql =
      "SELECT call.region, count(*) AS c FROM call WHERE call.pnum = 7 "
      "AND call.date = '2016-03-15' GROUP BY call.region ORDER BY c DESC";
  auto bounded = session_->ExecuteBounded(sql);
  auto conventional = db_.Query(sql);
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  ASSERT_TRUE(conventional.ok());
  ASSERT_EQ(bounded->rows.size(), 2u);
  EXPECT_EQ(bounded->rows[0][0], S("R1"));
  EXPECT_EQ(bounded->rows[0][1], I(2)) << "COUNT must see the duplicate";
  EXPECT_TRUE(RowMultisetsEqual(bounded->rows, conventional->rows));
}

TEST_F(BoundedTest, DistinctAggregateIgnoresWeights) {
  ASSERT_TRUE(
      db_.Insert("call", {I(7), I(100), Dt("2016-03-15"), S("R1")}).ok());
  ASSERT_TRUE(catalog_->Unregister("psi1").ok());
  ASSERT_TRUE(catalog_
                  ->Register({"psi1",
                              "call",
                              {"pnum", "date"},
                              {"recnum", "region"},
                              500})
                  .ok());
  const char* sql =
      "SELECT count(DISTINCT call.recnum) FROM call WHERE call.pnum = 7 "
      "AND call.date = '2016-03-15'";
  auto bounded = session_->ExecuteBounded(sql);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded->rows[0][0], I(2));
}

TEST_F(BoundedTest, ActualFetchesWithinDeducedBound) {
  const char* sql =
      "SELECT call.region FROM call, package, business "
      "WHERE business.type = 'bank' AND business.region = 'R1' "
      "AND business.pnum = call.pnum AND call.date = '2016-03-15' "
      "AND call.pnum = package.pnum AND package.year = 2016";
  CoverageResult c = MustCheck(sql);
  ASSERT_TRUE(c.covered);
  auto bounded = session_->ExecuteBounded(sql);
  ASSERT_TRUE(bounded.ok());
  EXPECT_LE(bounded->tuples_accessed, c.plan.total_access_bound);
}

TEST_F(BoundedTest, ExecuteBoundedRejectsUncovered) {
  auto r = session_->ExecuteBounded(
      "SELECT call.recnum FROM call WHERE call.region = 'R1'");
  EXPECT_EQ(r.status().code(), StatusCode::kNotCovered);
}

TEST_F(BoundedTest, ExecuteAutoPicksBoundedMode) {
  BeasSession::ExecutionDecision decision;
  auto r = session_->Execute(
      "SELECT call.recnum FROM call WHERE call.pnum = 7 AND call.date = "
      "'2016-03-15'",
      &decision);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(decision.mode, BeasSession::ExecutionDecision::Mode::kBounded);
  EXPECT_EQ(decision.deduced_bound, 500u);
}

TEST_F(BoundedTest, PartiallyBoundedExecution) {
  // business/package parts are coverable; call.region='R1' blocks call.
  const char* sql =
      "SELECT call.recnum FROM call, business "
      "WHERE business.type = 'bank' AND business.region = 'R1' "
      "AND business.pnum = call.pnum AND call.region = 'R1'";
  BeasSession::ExecutionDecision decision;
  auto r = session_->Execute(sql, &decision);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(decision.mode,
            BeasSession::ExecutionDecision::Mode::kPartiallyBounded);
  auto conventional = db_.Query(sql);
  ASSERT_TRUE(conventional.ok());
  EXPECT_TRUE(RowMultisetsEqual(r->rows, conventional->rows));
  EXPECT_GT(r->rows.size(), 0u);
}

TEST_F(BoundedTest, ConventionalFallbackWhenNothingCoverable) {
  const char* sql = "SELECT call.recnum FROM call WHERE call.region = 'R1'";
  BeasSession::ExecutionDecision decision;
  auto r = session_->Execute(sql, &decision);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(decision.mode,
            BeasSession::ExecutionDecision::Mode::kConventional);
  auto conventional = db_.Query(sql);
  EXPECT_TRUE(RowMultisetsEqual(r->rows, conventional->rows));
}

TEST_F(BoundedTest, ApproximationUnderBudget) {
  const char* sql =
      "SELECT call.recnum FROM call WHERE call.pnum IN (7, 8, 9) "
      "AND call.date = '2016-03-15'";
  // Exact needs 4 fetched tuples (2+1+1); budget 2 forces partial service.
  auto approx = session_->ExecuteApproximate(sql, 2);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_LE(approx->tuples_fetched, 4u);
  EXPECT_LE(approx->eta, 1.0);
  EXPECT_GT(approx->eta, 0.0);
  // Answers are a subset of the exact answer.
  auto exact = session_->ExecuteBounded(sql);
  ASSERT_TRUE(exact.ok());
  std::vector<Row> exact_rows = exact->rows;
  SortAndDedupRows(&exact_rows);
  for (const Row& row : approx->result.rows) {
    bool found = false;
    for (const Row& e : exact_rows) {
      if (CompareValueVec(row, e) == 0) found = true;
    }
    EXPECT_TRUE(found) << RowToString(row) << " not in exact answer";
  }
}

TEST_F(BoundedTest, ApproximationWithAmpleBudgetIsExact) {
  const char* sql =
      "SELECT call.recnum FROM call WHERE call.pnum = 7 AND call.date = "
      "'2016-03-15'";
  auto approx = session_->ExecuteApproximate(sql, 1000000);
  ASSERT_TRUE(approx.ok());
  EXPECT_TRUE(approx->exact);
  EXPECT_DOUBLE_EQ(approx->eta, 1.0);
  auto exact = session_->ExecuteBounded(sql);
  EXPECT_TRUE(RowMultisetsEqual(approx->result.rows, exact->rows));
}

TEST_F(BoundedTest, ApproximationRejectsUncovered) {
  auto r = session_->ExecuteApproximate(
      "SELECT call.recnum FROM call WHERE call.region = 'R1'", 10);
  EXPECT_EQ(r.status().code(), StatusCode::kNotCovered);
}

TEST_F(BoundedTest, TwoProjectionsOfSameAtomNotCovered) {
  // Soundness: two constraints each exposing half of the needed columns of
  // one atom must NOT be chained — joining the two Y-projections on the
  // key alone can fabricate (recnum, region) combinations that never
  // co-occur in a single call tuple. The checker requires ONE constraint
  // whose X∪Y covers the atom's needed columns.
  AsCatalog catalog2(&db_);
  ASSERT_TRUE(catalog2
                  .Register({"a1", "call", {"pnum", "date"}, {"recnum"}, 500})
                  .ok());
  ASSERT_TRUE(catalog2
                  .Register({"a2", "call", {"pnum", "date"}, {"region"}, 500})
                  .ok());
  BeasSession session2(&db_, &catalog2);
  const char* sql =
      "SELECT call.recnum, call.region FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15'";
  auto c = session2.Check(sql);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->covered);
  // Each projection alone IS covered by its own constraint.
  auto single = session2.Check(
      "SELECT call.recnum FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15'");
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single->covered) << single->reason;
}

// Regression for the budget-cap edge: a step that starts with the budget
// already exhausted must serve ZERO keys (η -> 0 for the step), not
// degrade to a cap of 1 and silently over-fetch while claiming coverage.
// Both executor paths must agree exactly.
TEST_F(BoundedTest, BudgetExhaustionServesZeroKeysMidChain) {
  const char* sql =
      "SELECT package.pid FROM call, package WHERE call.pnum IN (7, 8) AND "
      "call.date = '2016-03-15' AND package.pnum = call.pnum AND "
      "package.year = 2016";
  CoverageResult cov = MustCheck(sql);
  ASSERT_TRUE(cov.covered) << cov.reason;
  ASSERT_EQ(cov.plan.steps.size(), 2u);
  BoundQuery q = MustBind(sql);
  BoundedExecutor executor(catalog_.get());
  // Whichever step order the optimizer picks, each step's exact need is 3
  // fetched tuples (keys 7 and 8 with bucket sizes 2 + 1 on both tables).
  for (bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference" : "vectorized");
    auto run = [&](const BoundedExecOptions& options,
                   BoundedExecStats* stats) {
      return reference
                 ? ExecuteReference(*catalog_, q, cov.plan, options, stats)
                 : executor.Execute(q, cov.plan, options, stats);
    };
    BoundedExecOptions options;
    options.fetch_budget = 3;  // exactly consumed by step 1
    BoundedExecStats stats;
    auto r = run(options, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(stats.tuples_fetched, 3u);  // step 2 fetched nothing
    EXPECT_DOUBLE_EQ(stats.eta, 0.0);     // 0 of step 2's 2 keys served
    EXPECT_TRUE(r->rows.empty());

    options.fetch_budget = 4;  // exhausts mid-step-2: 1 of 2 keys served
    auto r2 = run(options, &stats);
    ASSERT_TRUE(r2.ok());
    EXPECT_DOUBLE_EQ(stats.eta, 0.5);
    EXPECT_EQ(stats.tuples_fetched, 5u);
    EXPECT_FALSE(r2->rows.empty());
  }
}

TEST_F(BoundedTest, EmptyXConstraintActsAsGlobalBound) {
  AsCatalog catalog2(&db_);
  ASSERT_TRUE(
      catalog2.Register({"g", "business", {}, {"pnum", "type", "region"}, 2000})
          .ok());
  BeasSession session2(&db_, &catalog2);
  const char* sql = "SELECT business.pnum FROM business "
                    "WHERE business.type = 'bank'";
  auto c = session2.Check(sql);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->covered) << c->reason;
  auto r = session2.ExecuteBounded(sql);
  ASSERT_TRUE(r.ok());
  auto conventional = db_.Query(sql);
  EXPECT_TRUE(RowMultisetsEqual(r->rows, conventional->rows));
}

}  // namespace
}  // namespace beas
