#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bounded/bounded_plan.h"
#include "common/env.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/shard_config.h"
#include "common/string_util.h"
#include "service/beas_service.h"
#include "service/plan_cache.h"
#include "service/result_cache.h"
#include "service/template_key.h"
#include "sql/canonical_template.h"
#include "sql/parser.h"
#include "sql/sql_template.h"
#include "support/test_env.h"
#include "test_util.h"
#include "workload/tlc_queries.h"
#include "workload/tlc_schema.h"

namespace beas {
namespace {

using testing_util::Dt;
using testing_util::I;
using testing_util::MakeTable;
using testing_util::S;

// ---------------------------------------------------------------------------
// Template normalization.
// ---------------------------------------------------------------------------

TEST(SqlTemplateTest, LiftsLiteralsAndStripsComments) {
  auto t1 = MaskSqlLiterals("SELECT x FROM t WHERE id = 7 -- comment\n");
  auto t2 = MaskSqlLiterals("SELECT x FROM t WHERE id = 42");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t1->text, "SELECT x FROM t WHERE id = ? \n");
  EXPECT_EQ(t2->text, "SELECT x FROM t WHERE id = ?");
  ASSERT_EQ(t1->params.size(), 1u);
  EXPECT_EQ(t1->params[0], Value::Int64(7));
  EXPECT_EQ(t2->params[0], Value::Int64(42));
}

TEST(SqlTemplateTest, InListArityIsPartOfTheTemplate) {
  auto t2 = MaskSqlLiterals("SELECT x FROM t WHERE id IN (1, 2)");
  auto t3 = MaskSqlLiterals("SELECT x FROM t WHERE id IN (1, 2, 3)");
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(t3.ok());
  EXPECT_NE(t2->text, t3->text);
}

TEST(SqlTemplateTest, DistinguishesStructure) {
  auto a = MaskSqlLiterals("SELECT x FROM t WHERE id = 1");
  auto b = MaskSqlLiterals("SELECT x FROM t WHERE id > 1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->text, b->text);
}

/// CDR fixture shared by the bound-template and service tests.
class TemplateKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MakeTable(&db_, "call",
              Schema({{"pnum", TypeId::kInt64},
                      {"recnum", TypeId::kInt64},
                      {"date", TypeId::kDate},
                      {"region", TypeId::kString}}),
              {{I(7), I(100), Dt("2016-03-15"), S("R1")}});
    MakeTable(&db_, "package",
              Schema({{"pnum", TypeId::kInt64},
                      {"pid", TypeId::kInt64},
                      {"year", TypeId::kInt64}}),
              {{I(7), I(5), I(2016)}});
  }

  QueryTemplate Template(const std::string& sql) {
    auto sql_tmpl = MaskSqlLiterals(sql);
    EXPECT_TRUE(sql_tmpl.ok());
    auto query = db_.Bind(sql);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    return BuildQueryTemplate(*sql_tmpl, *query);
  }

  Database db_;
};

TEST_F(TemplateKeyTest, SameTemplateForDifferentConstants) {
  QueryTemplate a = Template(
      "SELECT call.region FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15' LIMIT 5");
  QueryTemplate b = Template(
      "SELECT call.region FROM call WHERE call.pnum = 99 AND "
      "call.date = '2017-01-01' LIMIT 10");
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_TRUE(a.cacheable);
  EXPECT_EQ(a.param_count, b.param_count);
  ASSERT_EQ(a.tables.size(), 1u);
  EXPECT_EQ(a.tables[0], "call");
}

TEST_F(TemplateKeyTest, StructureChangesTheTemplate) {
  QueryTemplate base =
      Template("SELECT call.region FROM call WHERE call.pnum = 7");
  QueryTemplate extra_pred = Template(
      "SELECT call.region FROM call WHERE call.pnum = 7 AND "
      "call.recnum = 1");
  QueryTemplate join = Template(
      "SELECT call.region FROM call, package WHERE call.pnum = package.pnum "
      "AND call.pnum = 7");
  QueryTemplate in3 =
      Template("SELECT call.region FROM call WHERE call.pnum IN (1, 2, 3)");
  QueryTemplate in2 =
      Template("SELECT call.region FROM call WHERE call.pnum IN (1, 2)");
  EXPECT_NE(base.canonical, extra_pred.canonical);
  EXPECT_NE(base.canonical, join.canonical);
  EXPECT_NE(in3.canonical, in2.canonical);
  EXPECT_NE(base.canonical, in2.canonical);
}

TEST_F(TemplateKeyTest, ValueDependentTemplatesAreUncacheable) {
  // Two equality constants on one attribute: satisfiable iff equal.
  QueryTemplate twice = Template(
      "SELECT call.region FROM call WHERE call.pnum = 7 AND call.pnum = 8");
  EXPECT_FALSE(twice.cacheable);

  // Same through a join-induced equivalence class.
  QueryTemplate via_join = Template(
      "SELECT call.region FROM call, package WHERE call.pnum = package.pnum "
      "AND call.pnum = 7 AND package.pnum = 8");
  EXPECT_FALSE(via_join.cacheable);

  // IN plus equality on one class: the intersection depends on values.
  QueryTemplate eq_and_in = Template(
      "SELECT call.region FROM call WHERE call.pnum = 7 AND "
      "call.pnum IN (7, 8)");
  EXPECT_FALSE(eq_and_in.cacheable);

  // One constant predicate per class stays cacheable.
  QueryTemplate fine = Template(
      "SELECT call.region FROM call, package WHERE call.pnum = package.pnum "
      "AND call.pnum = 7 AND package.year = 2016");
  EXPECT_TRUE(fine.cacheable);
}

// ---------------------------------------------------------------------------
// Plan cache mechanics.
// ---------------------------------------------------------------------------

QueryTemplate KeyFor(const std::string& canonical,
                     std::vector<std::string> tables) {
  QueryTemplate key;
  key.canonical = canonical;
  key.hash = HashString(canonical);
  key.tables = std::move(tables);
  return key;
}

std::shared_ptr<const PlanCache::Entry> EntryFor(
    std::vector<std::string> tables) {
  auto entry = std::make_shared<PlanCache::Entry>();
  entry->covered = true;
  entry->tables = std::move(tables);
  entry->prepared =
      std::make_shared<PreparedQuery>(PrepareQuery(BoundQuery(), {}));
  return entry;
}

TEST(PlanCacheTest, HitMissAndLruEviction) {
  PlanCache cache(/*capacity=*/2, /*num_shards=*/1);
  QueryTemplate a = KeyFor("a", {"t"});
  QueryTemplate b = KeyFor("b", {"t"});
  QueryTemplate c = KeyFor("c", {"t"});

  EXPECT_EQ(cache.Lookup(a, {}), nullptr);
  cache.Insert(a, EntryFor({"t"}));
  cache.Insert(b, EntryFor({"t"}));
  EXPECT_NE(cache.Lookup(a, {}), nullptr);  // refreshes a; b is now LRU
  cache.Insert(c, EntryFor({"t"}));     // evicts b
  EXPECT_NE(cache.Lookup(a, {}), nullptr);
  EXPECT_EQ(cache.Lookup(b, {}), nullptr);
  EXPECT_NE(cache.Lookup(c, {}), nullptr);

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);  // first Lookup(a) and Lookup(b) after evict
}

TEST(PlanCacheTest, TableTargetedInvalidation) {
  PlanCache cache(8, 2);
  QueryTemplate a = KeyFor("a", {"call"});
  QueryTemplate b = KeyFor("b", {"package"});
  QueryTemplate ab = KeyFor("ab", {"call", "package"});
  cache.Insert(a, EntryFor({"call"}));
  cache.Insert(b, EntryFor({"package"}));
  cache.Insert(ab, EntryFor({"call", "package"}));

  cache.InvalidateTable("CALL");  // case-insensitive
  EXPECT_EQ(cache.Lookup(a, {}), nullptr);
  EXPECT_EQ(cache.Lookup(ab, {}), nullptr);
  EXPECT_NE(cache.Lookup(b, {}), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

// ---------------------------------------------------------------------------
// Database thread-safety contract.
// ---------------------------------------------------------------------------

TEST(DatabaseContractTest, ReentrantWriteFromHookIsRejected) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", Schema({{"x", TypeId::kInt64}})).ok());
  Status inner = Status::OK();
  bool attempted = false;
  db.RegisterWriteHook([&](const std::string&, const Row&, bool) {
    if (attempted) return;  // only re-enter once
    attempted = true;
    inner = db.Insert("t", {I(99)});
  });
  ASSERT_TRUE(db.Insert("t", {I(1)}).ok());
  EXPECT_TRUE(attempted);
  EXPECT_FALSE(inner.ok());
  EXPECT_NE(inner.ToString().find("concurrent write"), std::string::npos);
}

TEST(DatabaseContractTest, DdlHookFiresOnCreateTable) {
  Database db;
  std::vector<std::string> created;
  db.RegisterDdlHook([&](const std::string& t) { created.push_back(t); });
  ASSERT_TRUE(db.CreateTable("t1", Schema({{"x", TypeId::kInt64}})).ok());
  ASSERT_TRUE(db.CreateTable("t2", Schema({{"x", TypeId::kInt64}})).ok());
  EXPECT_EQ(created, (std::vector<std::string>{"t1", "t2"}));
}

// ---------------------------------------------------------------------------
// RebindPlanConstants.
// ---------------------------------------------------------------------------

TEST_F(TemplateKeyTest, RebindPlanConstantsRetargetsFetchKeys) {
  AsCatalog catalog(&db_);
  ASSERT_TRUE(catalog
                  .Register({"psi1",
                             "call",
                             {"pnum", "date"},
                             {"recnum", "region"},
                             500})
                  .ok());
  BeasSession session(&db_, &catalog);

  auto q1 = db_.Bind(
      "SELECT call.region FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15'");
  auto q2 = db_.Bind(
      "SELECT call.region FROM call WHERE call.pnum = 8 AND "
      "call.date = '2016-04-01'");
  ASSERT_TRUE(q1.ok() && q2.ok());
  auto coverage = session.Check(*q1);
  ASSERT_TRUE(coverage.ok() && coverage->covered);

  auto rebound = RebindPlanConstants(coverage->plan, *q2);
  ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
  ASSERT_EQ(rebound->steps.size(), 1u);
  ASSERT_EQ(rebound->steps[0].key_sources.size(), 2u);
  EXPECT_EQ(rebound->steps[0].key_sources[0].constant, I(8));
  EXPECT_EQ(rebound->steps[0].key_sources[1].constant,
            Dt("2016-04-01"));
  // Bounds are template-level properties: unchanged by rebinding.
  EXPECT_EQ(rebound->total_access_bound, coverage->plan.total_access_bound);
}

// ---------------------------------------------------------------------------
// BeasService.
// ---------------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServiceOptions options;
    options.num_workers = 2;
    options.cache_capacity = 64;
    options.cache_shards = 4;
    service_ = std::make_unique<BeasService>(options);
    Populate(service_.get());
  }

  static void Populate(BeasService* service) {
    ASSERT_TRUE(service
                    ->CreateTable("call", Schema({{"pnum", TypeId::kInt64},
                                                  {"recnum", TypeId::kInt64},
                                                  {"date", TypeId::kDate},
                                                  {"region", TypeId::kString}}))
                    .ok());
    ASSERT_TRUE(service
                    ->CreateTable("business",
                                  Schema({{"pnum", TypeId::kInt64},
                                          {"type", TypeId::kString},
                                          {"region", TypeId::kString}}))
                    .ok());
    ASSERT_TRUE(service
                    ->CreateTable("package", Schema({{"pnum", TypeId::kInt64},
                                                     {"pid", TypeId::kInt64},
                                                     {"year", TypeId::kInt64}}))
                    .ok());
    std::vector<Row> calls = {
        {I(7), I(100), Dt("2016-03-15"), S("R1")},
        {I(7), I(101), Dt("2016-03-15"), S("R2")},
        {I(7), I(100), Dt("2016-03-16"), S("R1")},
        {I(8), I(200), Dt("2016-03-15"), S("R1")},
        {I(9), I(300), Dt("2016-03-15"), S("R3")},
    };
    for (Row& row : calls) {
      ASSERT_TRUE(service->Insert("call", std::move(row)).ok());
    }
    std::vector<Row> businesses = {
        {I(7), S("bank"), S("R1")},
        {I(8), S("bank"), S("R1")},
        {I(9), S("school"), S("R1")},
    };
    for (Row& row : businesses) {
      ASSERT_TRUE(service->Insert("business", std::move(row)).ok());
    }
    std::vector<Row> packages = {
        {I(7), I(5), I(2016)},
        {I(8), I(5), I(2016)},
    };
    for (Row& row : packages) {
      ASSERT_TRUE(service->Insert("package", std::move(row)).ok());
    }
    ASSERT_TRUE(service
                    ->RegisterConstraint({"psi1",
                                          "call",
                                          {"pnum", "date"},
                                          {"recnum", "region"},
                                          500})
                    .ok());
    ASSERT_TRUE(service
                    ->RegisterConstraint({"psi3",
                                          "business",
                                          {"type", "region"},
                                          {"pnum"},
                                          2000})
                    .ok());
  }

  QueryResponse MustExecute(const std::string& sql) {
    return testing_util::ValueOrThrow(service_->Query({sql}), sql);
  }

  static std::vector<Row> Sorted(std::vector<Row> rows) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return CompareValueVec(a, b) < 0;
    });
    return rows;
  }

  std::unique_ptr<BeasService> service_;
};

TEST_F(ServiceTest, CachedExecutionMatchesUncachedAcrossParameters) {
  // Plan-cache mechanics under test: keep the result cache from serving
  // the repeats outright.
  service_->set_result_cache_enabled(false);
  const char* with_params[] = {
      "SELECT call.region FROM call WHERE call.pnum = %d AND "
      "call.date = '2016-03-15'",
  };
  for (const char* fmt : with_params) {
    for (int pass = 0; pass < 2; ++pass) {
      for (int pnum : {7, 8, 9}) {
        std::string sql = StringPrintf(fmt, pnum);
        QueryResponse cached = MustExecute(sql);
        EXPECT_EQ(cached.decision.mode,
                  BeasSession::ExecutionDecision::Mode::kBounded);
        // Reference: the session pipeline, bypassing the cache.
        auto reference = service_->session().Execute(sql);
        ASSERT_TRUE(reference.ok());
        EXPECT_EQ(Sorted(cached.result.rows), Sorted(reference->rows))
            << sql;
        if (pass > 0) {
          EXPECT_TRUE(cached.cache_hit) << sql;
        }
      }
    }
  }
  PlanCacheStats stats = service_->cache_stats();
  EXPECT_EQ(stats.misses, 1u);  // one template
  EXPECT_GE(stats.hits, 5u);    // five parameterized reuses
}

TEST_F(ServiceTest, JoinTemplateIsCachedAndRebound) {
  std::string q1 =
      "SELECT call.region FROM call, business WHERE business.type = 'bank' "
      "AND business.region = 'R1' AND business.pnum = call.pnum AND "
      "call.date = '2016-03-15'";
  std::string q2 =
      "SELECT call.region FROM call, business WHERE business.type = 'school' "
      "AND business.region = 'R1' AND business.pnum = call.pnum AND "
      "call.date = '2016-03-15'";
  QueryResponse r1 = MustExecute(q1);
  QueryResponse r2 = MustExecute(q2);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r1.decision.mode, BeasSession::ExecutionDecision::Mode::kBounded);
  // banks 7,8 -> R1,R2,R1 ; school 9 -> R3
  EXPECT_EQ(Sorted(r1.result.rows),
            Sorted({{S("R1")}, {S("R2")}, {S("R1")}}));
  EXPECT_EQ(Sorted(r2.result.rows), Sorted({{S("R3")}}));
}

TEST_F(ServiceTest, NonCoveredTemplateCachesPartialChoice) {
  service_->set_result_cache_enabled(false);  // plan-cache mechanics under test
  // business alone: psi3 needs a constant type AND region; only region is
  // bound, so the query is not covered and has no coverable fragment.
  std::string q = "SELECT business.pnum FROM business WHERE "
                  "business.region = 'R1'";
  QueryResponse r1 = MustExecute(q);
  QueryResponse r2 = MustExecute(q);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r1.decision.mode,
            BeasSession::ExecutionDecision::Mode::kConventional);
  EXPECT_EQ(r2.decision.mode,
            BeasSession::ExecutionDecision::Mode::kConventional);
  EXPECT_EQ(Sorted(r2.result.rows), Sorted({{I(7)}, {I(8)}, {I(9)}}));
}

TEST_F(ServiceTest, UncacheableTemplateBypassesTheCache) {
  service_->set_result_cache_enabled(false);  // plan-cache mechanics under test
  std::string q = "SELECT call.region FROM call WHERE call.pnum = 7 AND "
                  "call.pnum = 7 AND call.date = '2016-03-15'";
  QueryResponse r1 = MustExecute(q);
  QueryResponse r2 = MustExecute(q);
  EXPECT_FALSE(r1.cacheable);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(Sorted(r1.result.rows), Sorted({{S("R1")}, {S("R2")}}));
  EXPECT_EQ(service_->cache_stats().uncacheable, 2u);

  // Strict bounded mode resolves the same plan and reports the same
  // verdict: same answer, not eligible for the cache.
  auto bounded = service_->Query({q, QueryMode::kBoundedOnly});
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_FALSE(bounded->cacheable);
  EXPECT_FALSE(bounded->cache_hit);
  EXPECT_EQ(Sorted(bounded->result.rows), Sorted(r1.result.rows));

  // The value-dependent twin with different constants: empty answer.
  QueryResponse r3 = MustExecute(
      "SELECT call.region FROM call WHERE call.pnum = 7 AND "
      "call.pnum = 8 AND call.date = '2016-03-15'");
  EXPECT_TRUE(r3.result.rows.empty());
}

// Every mode keys the plan cache on the request's canonical template, so
// a check-mode miss warms the plan that a kAuto request of the same
// non-canonical spelling then hits.
TEST_F(ServiceTest, CheckModeSharesTheTemplateIdentity) {
  service_->set_result_cache_enabled(false);  // plan-cache mechanics under test
  std::string q = "SELECT call.region FROM call WHERE 7 = call.pnum AND "
                  "call.date = '2016-03-15'";
  auto check = service_->Query({q, QueryMode::kCheckOnly});
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->covered);
  EXPECT_FALSE(check->cache_hit);

  QueryResponse executed = MustExecute(q);
  EXPECT_TRUE(executed.cache_hit);
  EXPECT_EQ(executed.template_hash, check->template_hash);
  EXPECT_EQ(Sorted(executed.result.rows), Sorted({{S("R1")}, {S("R2")}}));
  EXPECT_EQ(service_->cache_stats().entries, 1u);
}

TEST_F(ServiceTest, PlainInsertsDoNotInvalidateButAnswersStayFresh) {
  std::string q = "SELECT call.region FROM call WHERE call.pnum = 7 AND "
                  "call.date = '2016-03-16'";
  QueryResponse before = MustExecute(q);
  EXPECT_EQ(Sorted(before.result.rows), Sorted({{S("R1")}}));

  // Incremental AC-index maintenance keeps the cached plan valid: no
  // invalidation, and the new row shows up in the cached-plan answer.
  ASSERT_TRUE(
      service_->Insert("call", {I(7), I(400), Dt("2016-03-16"), S("R9")})
          .ok());
  QueryResponse after = MustExecute(q);
  EXPECT_TRUE(after.cache_hit);
  EXPECT_EQ(Sorted(after.result.rows), Sorted({{S("R1")}, {S("R9")}}));
  EXPECT_EQ(service_->cache_stats().invalidations, 0u);
}

TEST_F(ServiceTest, BoundAdjustmentInvalidatesAffectedTemplates) {
  std::string q = "SELECT call.region FROM call WHERE call.pnum = 7 AND "
                  "call.date = '2016-03-15'";
  QueryResponse before = MustExecute(q);
  EXPECT_EQ(before.decision.deduced_bound, 500u);  // declared N of psi1

  // Maintenance observes max 2 distinct (recnum, region) per key and
  // tightens N; the adjustment must evict call-templates.
  size_t changed = 0;
  ASSERT_TRUE(service_->RunAdjustmentCycle(1.0, &changed).ok());
  ASSERT_GE(changed, 1u);
  EXPECT_GE(service_->cache_stats().invalidations, 1u);

  QueryResponse after = MustExecute(q);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.decision.deduced_bound, 2u);
  EXPECT_EQ(Sorted(after.result.rows), Sorted(before.result.rows));
}

TEST_F(ServiceTest, ConstraintRegistrationInvalidatesAndEnablesCoverage) {
  std::string q = "SELECT package.pid FROM package WHERE package.pnum = 7 "
                  "AND package.year = 2016";
  QueryResponse before = MustExecute(q);
  EXPECT_EQ(before.decision.mode,
            BeasSession::ExecutionDecision::Mode::kConventional);
  MustExecute(q);  // warm the not-covered entry

  ASSERT_TRUE(service_
                  ->RegisterConstraint(
                      {"psi2", "package", {"pnum", "year"}, {"pid"}, 12})
                  .ok());
  QueryResponse after = MustExecute(q);
  EXPECT_FALSE(after.cache_hit);  // entry was evicted by the registration
  EXPECT_EQ(after.decision.mode,
            BeasSession::ExecutionDecision::Mode::kBounded);
  EXPECT_EQ(Sorted(after.result.rows), Sorted(before.result.rows));
}

TEST_F(ServiceTest, ExecuteBoundedUsesTheCache) {
  service_->set_result_cache_enabled(false);  // plan-cache mechanics under test
  std::string covered = "SELECT call.region FROM call WHERE call.pnum = 8 "
                        "AND call.date = '2016-03-15'";
  auto r1 = service_->Query({covered, QueryMode::kBoundedOnly});
  auto r2 = service_->Query({covered, QueryMode::kBoundedOnly});
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_FALSE(r1->cache_hit);
  EXPECT_TRUE(r2->cache_hit);
  EXPECT_EQ(r2->result.rows, (std::vector<Row>{{S("R1")}}));

  std::string uncovered = "SELECT business.pnum FROM business WHERE "
                          "business.region = 'R1'";
  auto e1 = service_->Query({uncovered, QueryMode::kBoundedOnly});
  auto e2 = service_->Query({uncovered, QueryMode::kBoundedOnly});
  EXPECT_FALSE(e1.ok());
  EXPECT_FALSE(e2.ok());  // cached not-covered verdict
}

// ---------------------------------------------------------------------------
// Materialized result cache.
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, ResultCacheServesRepeatsUntilSourceTableWrites) {
  std::string q = "SELECT call.region FROM call WHERE call.pnum = 7 AND "
                  "call.date = '2016-03-15'";
  QueryResponse first = MustExecute(q);
  EXPECT_FALSE(first.result_cache_hit);
  ASSERT_FALSE(first.result.rows.empty());

  QueryResponse hit = MustExecute(q);
  EXPECT_TRUE(hit.result_cache_hit);
  EXPECT_EQ(hit.result.rows, first.result.rows);  // bit-identical replay
  EXPECT_EQ(hit.eta, first.eta);
  EXPECT_EQ(hit.covered, first.covered);
  ResultCacheStats stats = service_->result_cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  // A plain insert into the source table bumps its version epoch; the next
  // read revalidates, drops the stale entry, and reevaluates.
  ASSERT_TRUE(
      service_->Insert("call", {I(7), I(102), Dt("2016-03-15"), S("R9")})
          .ok());
  QueryResponse fresh = MustExecute(q);
  EXPECT_FALSE(fresh.result_cache_hit);
  EXPECT_EQ(fresh.result.rows.size(), first.result.rows.size() + 1);
  EXPECT_GE(service_->result_cache_stats().invalidations, 1u);

  // Writes to unrelated tables leave the rebuilt entry warm.
  ASSERT_TRUE(service_->Insert("business", {I(10), S("bank"), S("R4")}).ok());
  QueryResponse warm = MustExecute(q);
  EXPECT_TRUE(warm.result_cache_hit);
  EXPECT_EQ(warm.result.rows, fresh.result.rows);

  // Deletes invalidate exactly like inserts.
  ASSERT_TRUE(
      service_->Delete("call", {I(7), I(102), Dt("2016-03-15"), S("R9")})
          .ok());
  QueryResponse after_delete = MustExecute(q);
  EXPECT_FALSE(after_delete.result_cache_hit);
  EXPECT_EQ(after_delete.result.rows.size(), fresh.result.rows.size() - 1);
}

TEST_F(ServiceTest, ResultCacheKeysSeparateModesAndBudgets) {
  std::string q = "SELECT call.region FROM call WHERE call.pnum = 7 AND "
                  "call.date = '2016-03-15'";
  EXPECT_FALSE(MustExecute(q).result_cache_hit);
  EXPECT_TRUE(MustExecute(q).result_cache_hit);

  // Bounded-only mode is its own budget class: it misses even though the
  // auto-mode answer is warm, then hits on its own repeat.
  auto b1 = service_->Query({q, QueryMode::kBoundedOnly});
  auto b2 = service_->Query({q, QueryMode::kBoundedOnly});
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_FALSE(b1->result_cache_hit);
  EXPECT_TRUE(b2->result_cache_hit);
  EXPECT_EQ(b2->result.rows, b1->result.rows);

  // So is an explicit fetch budget, even when the answer happens to be
  // complete under both.
  QueryOptions roomy;
  roomy.fetch_budget = 1000000;
  auto r = service_->Query({q, QueryMode::kAuto, roomy});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->result_cache_hit);

  // Clearing drops everything.
  service_->ClearResultCache();
  EXPECT_FALSE(MustExecute(q).result_cache_hit);
  EXPECT_EQ(service_->result_cache_stats().entries, 1u);
}

TEST_F(ServiceTest, ResultCacheIsByteBoundedAndEvicts) {
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_shards = 1;  // one shard → one LRU → deterministic bound
  options.result_cache_max_bytes = 4096;
  auto service = std::make_unique<BeasService>(options);
  Populate(service.get());

  // Far more distinct frozen-parameter keys than 4 KiB can hold.
  for (int pnum = 0; pnum < 40; ++pnum) {
    auto resp = service->Query(
        {"SELECT call.region FROM call WHERE call.pnum = " +
         std::to_string(pnum) + " AND call.date = '2016-03-15'"});
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }
  ResultCacheStats stats = service->result_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 4096u);
  EXPECT_LT(stats.entries, 40u);

  // The most recently used keys survive; ancient ones were evicted.
  auto recent = service->Query(
      {"SELECT call.region FROM call WHERE call.pnum = 39 AND "
       "call.date = '2016-03-15'"});
  ASSERT_TRUE(recent.ok());
  EXPECT_TRUE(recent->result_cache_hit);
  auto ancient = service->Query(
      {"SELECT call.region FROM call WHERE call.pnum = 0 AND "
       "call.date = '2016-03-15'"});
  ASSERT_TRUE(ancient.ok());
  EXPECT_FALSE(ancient->result_cache_hit);
}

TEST_F(ServiceTest, ZeroByteResultCacheStaysDisabled) {
  ServiceOptions options;
  options.num_workers = 2;
  options.result_cache_max_bytes = 0;  // documented: disables the cache
  auto service = std::make_unique<BeasService>(options);
  Populate(service.get());
  EXPECT_FALSE(service->result_cache_enabled());

  // A later enable must not turn lookups on against a cache with no
  // budget — it would report itself on yet drop every insert.
  service->set_result_cache_enabled(true);
  EXPECT_FALSE(service->result_cache_enabled());

  std::string q = "SELECT call.region FROM call WHERE call.pnum = 7 AND "
                  "call.date = '2016-03-15'";
  auto first = service->Query({q});
  auto second = service->Query({q});
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_FALSE(second->result_cache_hit);
  EXPECT_EQ(service->result_cache_stats().entries, 0u);
}

TEST_F(ServiceTest, CanonicalSpellingsShareOneResultCacheEntry) {
  // One canonical template, three spellings: conjuncts reordered, the
  // equality flipped literal-first, and the FROM list permuted.
  std::string a =
      "SELECT call.region FROM call, business WHERE business.type = 'bank' "
      "AND business.region = 'R1' AND business.pnum = call.pnum AND "
      "call.date = '2016-03-15'";
  std::string b =
      "SELECT call.region FROM business, call WHERE call.date = '2016-03-15' "
      "AND business.pnum = call.pnum AND 'bank' = business.type AND "
      "business.region = 'R1'";

  uint64_t before = service_->template_canonicalizations();
  QueryResponse ra = MustExecute(a);
  QueryResponse rb = MustExecute(b);
  EXPECT_GT(service_->template_canonicalizations(), before);

  // The second spelling is answered from the first spelling's entry,
  // bit-identically.
  EXPECT_FALSE(ra.result_cache_hit);
  EXPECT_TRUE(rb.result_cache_hit);
  EXPECT_EQ(rb.result.rows, ra.result.rows);
  EXPECT_EQ(rb.result.column_names, ra.result.column_names);
  EXPECT_EQ(rb.eta, ra.eta);

  // Same property for single-table equality swaps with a parameter.
  std::string c = "SELECT call.region FROM call WHERE call.pnum = 8 AND "
                  "call.date = '2016-03-15'";
  std::string d = "SELECT call.region FROM call WHERE "
                  "call.date = '2016-03-15' AND 8 = call.pnum";
  QueryResponse rc = MustExecute(c);
  QueryResponse rd = MustExecute(d);
  EXPECT_FALSE(rc.result_cache_hit);
  EXPECT_TRUE(rd.result_cache_hit);
  EXPECT_EQ(rd.result.rows, rc.result.rows);

  // Different frozen parameters never collide.
  std::string e = "SELECT call.region FROM call WHERE "
                  "call.date = '2016-03-15' AND 9 = call.pnum";
  QueryResponse re = MustExecute(e);
  EXPECT_FALSE(re.result_cache_hit);
  EXPECT_EQ(re.result.rows, (std::vector<Row>{{S("R3")}}));
}

TEST_F(ServiceTest, ResultCacheGaugesExposedThroughBeasStats) {
  std::string q = "SELECT call.region FROM call WHERE call.pnum = 7 AND "
                  "call.date = '2016-03-15'";
  MustExecute(q);
  EXPECT_TRUE(MustExecute(q).result_cache_hit);
  ASSERT_TRUE(
      service_->Insert("call", {I(7), I(103), Dt("2016-03-15"), S("R5")})
          .ok());
  EXPECT_FALSE(MustExecute(q).result_cache_hit);  // lazily invalidated

  ResultCacheStats expect = service_->result_cache_stats();
  QueryResponse resp =
      MustExecute("SELECT metric, value FROM beas_stats ORDER BY metric");
  auto value_of = [&](const std::string& metric) -> double {
    for (const Row& row : resp.result.rows) {
      if (row[0].AsString() == metric) return row[1].AsDouble();
    }
    ADD_FAILURE() << "metric not exported: " << metric;
    return -1.0;
  };

  EXPECT_EQ(value_of("result_cache_enabled"), 1.0);
  EXPECT_EQ(value_of("result_cache_hits_total"),
            static_cast<double>(expect.hits));
  EXPECT_EQ(value_of("result_cache_misses_total"),
            static_cast<double>(expect.misses));
  EXPECT_EQ(value_of("result_cache_invalidations_total"),
            static_cast<double>(expect.invalidations));
  EXPECT_EQ(value_of("result_cache_bytes"), static_cast<double>(expect.bytes));
  EXPECT_EQ(value_of("result_cache_entries"),
            static_cast<double>(expect.entries));
  EXPECT_GE(value_of("result_cache_invalidations_total"), 1.0);
  EXPECT_GE(value_of("template_canonicalizations_total"), 1.0);
  // In-process execution never touches the wire: the net-side hit gauge
  // stays zero (the in-process-zero convention for net_* gauges).
  EXPECT_EQ(value_of("net_result_cache_hits_total"), 0.0);
}

TEST_F(ServiceTest, IndexBytesGaugeExposedThroughBeasStats) {
  QueryResponse resp = MustExecute(
      "SELECT value FROM beas_stats WHERE metric = 'ac_index_bytes'");
  ASSERT_EQ(resp.result.rows.size(), 1u);
  double gauge = resp.result.rows[0][0].AsDouble();
  EXPECT_GT(gauge, 0.0);
  EXPECT_EQ(gauge, static_cast<double>(service_->catalog()->TotalIndexBytes()));
}

TEST_F(ServiceTest, HeapBytesGaugeExposedThroughBeasStats) {
  QueryResponse resp = MustExecute(
      "SELECT value FROM beas_stats WHERE metric = 'heap_bytes'");
  ASSERT_EQ(resp.result.rows.size(), 1u);
  double gauge = resp.result.rows[0][0].AsDouble();
  uint64_t total = 0;
  for (const std::string& name : service_->db()->catalog()->TableNames()) {
    total += (*service_->db()->catalog()->GetTable(name))->heap()->ApproxBytes();
  }
  EXPECT_GT(gauge, 0.0);
  EXPECT_EQ(gauge, static_cast<double>(total));
}

// ---------------------------------------------------------------------------
// Canonical-form memo.
// ---------------------------------------------------------------------------

// A from-scratch canonicalization of this instance: the reference the
// memoized PrepareTemplate must reproduce.
TemplateInfo FreshTemplate(const std::string& sql) {
  CanonicalizedTemplate canon = CanonicalizeTemplate(*MaskSqlLiterals(sql));
  TemplateInfo info;
  info.masked = std::move(canon.tmpl);
  info.canonicalized = canon.changed;
  return info;
}

// Same values with the same types, in the same order.
void ExpectSameParams(const std::vector<Value>& got,
                      const std::vector<Value>& want, const std::string& sql) {
  ASSERT_EQ(got.size(), want.size()) << sql;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type(), want[i].type()) << sql << " #" << i;
    EXPECT_EQ(got[i], want[i]) << sql << " #" << i;
  }
}

void ExpectSameTemplate(const TemplateInfo& got, const TemplateInfo& want,
                        const std::string& sql) {
  EXPECT_EQ(got.masked.text, want.masked.text) << sql;
  ExpectSameParams(got.masked.params, want.masked.params, sql);
  EXPECT_EQ(got.canonicalized, want.canonicalized) << sql;
}

// `sql` with every literal replaced by a random value of the same type; a
// literal that spells a date gets another date of the TLC workload week.
// With `flip_numeric`, each numeric literal instead becomes a random one
// of INT `k`, DOUBLE `k.0` and DOUBLE `k.5` (k in 1..8), so equal values
// of both types meet.
std::string RandomInstance(const std::string& sql, std::mt19937* rng,
                           bool flip_numeric = false) {
  Result<SqlTemplate> masked = MaskSqlLiterals(sql);
  EXPECT_TRUE(masked.ok()) << sql;
  static const char* const kStrings[] = {"bank", "R1", "2016-03-15",
                                         "it's", "", "R 7"};
  for (Value& v : masked->params) {
    if (flip_numeric && v.type() != TypeId::kString) {
      int64_t k = 1 + (*rng)() % 8;
      switch ((*rng)() % 3) {
        case 0: v = Value::Int64(k); break;
        case 1: v = Value::Double(static_cast<double>(k)); break;
        default: v = Value::Double(k + 0.5); break;
      }
      continue;
    }
    switch (v.type()) {
      case TypeId::kInt64:
        v = Value::Int64(1 + (*rng)() % 30000);
        break;
      case TypeId::kDouble:
        v = Value::Double(((*rng)() % 400) + 0.5);
        break;
      default:
        v = Value::DateFromString(v.AsString()).ok()
                ? Value::String(StringPrintf("2016-03-%02d",
                                             8 + static_cast<int>((*rng)() % 9)))
                : Value::String(kStrings[(*rng)() % 6]);
        break;
    }
  }
  Result<std::string> rendered = RenderTemplate(*masked);
  EXPECT_TRUE(rendered.ok()) << sql;
  return *rendered;
}

std::vector<std::string> SplitOn(const std::string& s, const std::string& sep) {
  std::vector<std::string> out;
  size_t begin = 0;
  for (size_t at; (at = s.find(sep, begin)) != std::string::npos;) {
    out.push_back(s.substr(begin, at - begin));
    begin = at + sep.size();
  }
  out.push_back(s.substr(begin));
  return out;
}

// Respells `sql` at the source level. Bit 0 reverses the WHERE
// conjuncts, bit 1 flips `col = literal` equalities literal-first, bit 2
// reverses the FROM list. A WHERE with BETWEEN is not split (its AND is
// not a conjunction).
std::string Respell(const std::string& sql, int variant) {
  size_t from = sql.find(" FROM ");
  size_t where = sql.find(" WHERE ");
  size_t tail = std::string::npos;
  for (const char* kw : {" GROUP BY ", " ORDER BY ", " LIMIT "}) {
    tail = std::min(tail, sql.find(kw));
  }
  size_t from_end = std::min(where, tail);
  if (from == std::string::npos) return sql;
  std::vector<std::string> items =
      SplitOn(sql.substr(from + 6, std::min(from_end, sql.size()) - from - 6),
                  ", ");
  std::vector<std::string> conjuncts;
  if (where != std::string::npos) {
    std::string w = sql.substr(where + 7, std::min(tail, sql.size()) - where - 7);
    conjuncts = w.find("BETWEEN") == std::string::npos
                    ? SplitOn(w, " AND ")
                    : std::vector<std::string>{w};
  }
  if (variant & 1) std::reverse(conjuncts.begin(), conjuncts.end());
  if (variant & 2) {
    for (std::string& c : conjuncts) {
      size_t eq = c.find(" = ");
      if (eq == std::string::npos || c.find(" = ", eq + 1) != std::string::npos ||
          c.find("BETWEEN") != std::string::npos) {
        continue;
      }
      std::string rhs = c.substr(eq + 3);
      if (rhs[0] == '\'' || std::isdigit(static_cast<unsigned char>(rhs[0]))) {
        c = rhs + " = " + c.substr(0, eq);
      }
    }
  }
  if (variant & 4) std::reverse(items.begin(), items.end());
  std::string out = sql.substr(0, from) + " FROM " + Join(items, ", ");
  if (!conjuncts.empty()) out += " WHERE " + Join(conjuncts, " AND ");
  if (tail != std::string::npos) out += sql.substr(tail);
  return out;
}

TEST(CanonicalFormMemoTest, MemoHitMatchesAFreshCanonicalization) {
  std::mt19937 rng(16);
  CanonicalFormMemo memo(1024);
  size_t canonicalized = 0;
  for (const TlcQuery& q : TlcQueries()) {
    std::string a = RandomInstance(q.sql, &rng);
    std::string b = RandomInstance(q.sql, &rng);
    TemplateInfo bound;
    for (int variant = 0; variant < 8; ++variant) {
      // Two instances of one spelling, different values: the first puts
      // the spelling's canonical form in the memo, the second is a hit.
      std::string first = Respell(a, variant);
      std::string second = Respell(b, variant);
      ASSERT_EQ(MaskSqlLiterals(first)->text, MaskSqlLiterals(second)->text)
          << first << "\n" << second;
      ExpectSameTemplate(PrepareTemplate(first, &memo).ValueOrDie(),
                         FreshTemplate(first), first);
      uint64_t misses = memo.misses();
      TemplateInfo hit = PrepareTemplate(second, &memo).ValueOrDie();
      EXPECT_EQ(memo.misses(), misses) << second;
      TemplateInfo fresh = FreshTemplate(second);
      ExpectSameTemplate(hit, fresh, second);
      canonicalized += fresh.canonicalized;
      // Every spelling of one instance binds the identical template,
      // which a wrong parameter permutation would break.
      if (variant == 0) bound = hit;
      EXPECT_EQ(hit.masked.text, bound.masked.text) << second;
      ExpectSameParams(hit.masked.params, bound.masked.params, second);

      EXPECT_EQ(CanonicalizeTemplate(*MaskSqlLiterals(first)).param_order,
                CanonicalizeTemplate(*MaskSqlLiterals(second)).param_order)
          << second;
    }
  }
  // The spellings did exercise the rewrite: every multi-conjunct template
  // has at least one non-canonical variant.
  EXPECT_GT(canonicalized, TlcQueries().size() * 3);
}

// The type of every literal of a bound query, probe constants included,
// in a fixed walk order.
void CollectLiteralTypes(const ExprPtr& e, std::vector<TypeId>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kLiteral) out->push_back(e->literal.type());
  for (const Value& v : e->in_values) out->push_back(v.type());
  for (const ExprPtr& child : e->children) CollectLiteralTypes(child, out);
}

std::vector<TypeId> LiteralTypes(const BoundQuery& q) {
  std::vector<TypeId> out;
  for (const Conjunct& c : q.conjuncts) {
    CollectLiteralTypes(c.expr, &out);
    out.push_back(c.const_val.type());
    for (const Value& v : c.in_vals) out.push_back(v.type());
  }
  for (const OutputItem& item : q.outputs) CollectLiteralTypes(item.expr, &out);
  return out;
}

// ROADMAP item 2's property: a cached binding instantiated for a second
// instance is either refused or identical — text and literal types — to
// a fresh bind of that instance. Every TLC template, all 8 respellings,
// random parameters, and numeric slots flipped between INT k, DOUBLE k.0
// and DOUBLE k.5. Also checks that binding a canonical template gives the
// same query as binding its rendered SQL (the serving path binds the
// template; RenderTemplate is the reference).
TEST(CanonicalFormMemoTest, InstantiatedTemplateEqualsAFreshBind) {
  Database db;
  ASSERT_TRUE(CreateTlcTables(&db).ok());
  std::mt19937 rng(32);
  size_t instantiated = 0, refused = 0, rendered_checked = 0;
  auto expect_render_equivalent = [&](const SqlTemplate& tmpl) {
    Result<std::string> sql = RenderTemplate(tmpl);
    ASSERT_TRUE(sql.ok()) << tmpl.text;
    Result<BoundQuery> direct = db.Bind(tmpl);
    Result<BoundQuery> via_text = db.Bind(*sql);
    ASSERT_EQ(direct.ok(), via_text.ok()) << *sql;
    if (!direct.ok()) {
      EXPECT_EQ(direct.status().code(), via_text.status().code()) << *sql;
      return;
    }
    EXPECT_EQ(direct->ToString(), via_text->ToString()) << *sql;
    EXPECT_EQ(LiteralTypes(*direct), LiteralTypes(*via_text)) << *sql;
    ++rendered_checked;
  };
  for (const TlcQuery& q : TlcQueries()) {
    for (int variant = 0; variant < 8; ++variant) {
      for (int round = 0; round < 6; ++round) {
        bool flip = round % 2 == 1;
        std::string first = Respell(RandomInstance(q.sql, &rng, flip), variant);
        std::string second =
            Respell(RandomInstance(q.sql, &rng, round >= 2), variant);
        TemplateInfo a = FreshTemplate(first);
        TemplateInfo b = FreshTemplate(second);
        ASSERT_EQ(a.masked.text, b.masked.text) << first << "\n" << second;
        expect_render_equivalent(a.masked);
        expect_render_equivalent(b.masked);

        Result<BoundQuery> populated = db.Bind(a.masked);
        if (!populated.ok()) continue;
        PreparedQuery prepared = PrepareQuery(*populated, a.masked.params);
        Result<BoundQuery> inst = InstantiatePrepared(prepared, b.masked.params);
        Result<BoundQuery> fresh = db.Bind(b.masked);
        if (!inst.ok()) {
          ++refused;
          continue;
        }
        ++instantiated;
        ASSERT_TRUE(fresh.ok())
            << second << " instantiated from " << first << " but a fresh "
            << "bind fails: " << fresh.status().ToString();
        EXPECT_EQ(inst->ToString(), fresh->ToString())
            << second << "\ninstantiated from " << first;
        EXPECT_EQ(LiteralTypes(*inst), LiteralTypes(*fresh))
            << second << "\ninstantiated from " << first;
      }
    }
  }
  // Neither side of the property is vacuous.
  EXPECT_GT(instantiated, TlcQueries().size() * 8);
  EXPECT_GT(refused, TlcQueries().size());
  EXPECT_GT(rendered_checked, TlcQueries().size() * 8 * 6);
}

TEST_F(ServiceTest, BareQuestionMarkIsAParseError) {
  const std::string bare = "SELECT call.region FROM call WHERE ? = call.pnum "
                           "AND call.date = '2016-03-15'";
  EXPECT_EQ(Parser::Parse(bare).status().code(), StatusCode::kParseError);
  MustExecute("SELECT call.region FROM call WHERE 7 = call.pnum AND "
              "call.date = '2016-03-15'");  // same masked text, cached
  for (QueryMode mode : {QueryMode::kAuto, QueryMode::kBoundedOnly,
                         QueryMode::kApproximate, QueryMode::kCheckOnly}) {
    QueryRequest request{bare, mode};
    request.approx_budget = 100;
    auto resp = service_->Query(request);
    EXPECT_EQ(resp.status().code(), StatusCode::kParseError)
        << static_cast<int>(mode) << ": " << resp.status().ToString();
  }
}

TEST_F(ServiceTest, CanonicalFormMemoIsBoundedUnderConcurrentSpellings) {
  // More distinct spellings than cache_capacity (64): ordered picks of one
  // or two projected columns x conjunct order x literal-first flips.
  const char* const kColumns[] = {"call.recnum", "call.region", "call.pnum",
                                  "call.date"};
  std::vector<std::string> projections;
  for (const char* a : kColumns) {
    projections.push_back(a);
    for (const char* b : kColumns) {
      if (a != b) projections.push_back(std::string(a) + ", " + b);
    }
  }
  struct Request {
    std::string sql;
    std::vector<Row> expected;
    bool canonicalized = false;
  };
  std::vector<Request> requests;
  const char* const kDates[] = {"2016-03-15", "2016-03-16"};
  for (size_t p = 0; p < projections.size(); ++p) {
    for (int variant = 0; variant < 8; ++variant) {
      int pnum = 7 + static_cast<int>((p + variant) % 3);
      std::string pc = (variant & 2) ? StringPrintf("%d = call.pnum", pnum)
                                     : StringPrintf("call.pnum = %d", pnum);
      const char* date = kDates[(p + variant) % 2];
      std::string dc = (variant & 4) ? StringPrintf("'%s' = call.date", date)
                                     : StringPrintf("call.date = '%s'", date);
      Request r;
      r.sql = "SELECT " + projections[p] + " FROM call WHERE " +
              ((variant & 1) ? dc + " AND " + pc : pc + " AND " + dc);
      auto reference = service_->session().Execute(r.sql);
      ASSERT_TRUE(reference.ok()) << r.sql << ": "
                                  << reference.status().ToString();
      r.expected = Sorted(reference->rows);
      r.canonicalized = FreshTemplate(r.sql).canonicalized;
      requests.push_back(std::move(r));
    }
  }
  const size_t kCapacity = 64;
  ASSERT_GT(requests.size(), kCapacity);

  constexpr int kThreads = 4;
  constexpr size_t kRounds = 2;
  uint64_t canon_before = service_->template_canonicalizations();
  uint64_t misses_before = service_->template_memo_misses();
  std::atomic<int> mismatches{0}, failures{0}, over_bound{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kRounds * requests.size(); ++i) {
        const Request& r = requests[(i * 7 + t * 31) % requests.size()];
        auto resp = service_->Query({r.sql});
        if (!resp.ok()) {
          ++failures;
        } else if (Sorted(resp->result.rows) != r.expected) {
          ++mismatches;
        }
        if (service_->template_memo_entries() > kCapacity) ++over_bound;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(over_bound.load(), 0);
  EXPECT_LE(service_->template_memo_entries(), kCapacity);
  // Each thread visits every request kRounds times (7 is coprime to the
  // request count), so the expected count is exact.
  ASSERT_NE(requests.size() % 7, 0u);
  uint64_t canonical_requests = 0;
  for (const Request& r : requests) canonical_requests += r.canonicalized;
  EXPECT_GT(canonical_requests, 0u);
  EXPECT_EQ(service_->template_canonicalizations() - canon_before,
            canonical_requests * kThreads * kRounds);
  // Every spelling missed the memo at least once: more spellings than
  // entries, so the memo was cleared along the way.
  EXPECT_GE(service_->template_memo_misses() - misses_before, requests.size());
}

TEST_F(ServiceTest, TemplateMemoGaugesExposedThroughBeasStats) {
  // One hot spelling (literal-first, so it is served canonicalized):
  // its first request misses the memo, every later instance hits.
  uint64_t misses0 = service_->template_memo_misses();
  uint64_t canon0 = service_->template_canonicalizations();
  auto hot = [](int pnum) {
    return StringPrintf(
        "SELECT call.region FROM call WHERE call.date = '2016-03-15' AND "
        "%d = call.pnum",
        pnum);
  };
  MustExecute(hot(7));
  EXPECT_EQ(service_->template_memo_misses(), misses0 + 1);
  for (int i = 0; i < 6; ++i) MustExecute(hot(7 + i % 3));
  EXPECT_EQ(service_->template_memo_misses(), misses0 + 1);
  EXPECT_EQ(service_->template_canonicalizations(), canon0 + 7);

  // The stats refresh runs before the stats query prepares its own
  // template, so the gauges read exactly the values above.
  uint64_t entries = service_->template_memo_entries();
  uint64_t misses = service_->template_memo_misses();
  EXPECT_GE(entries, 1u);
  QueryResponse resp =
      MustExecute("SELECT metric, value FROM beas_stats ORDER BY metric");
  auto value_of = [&](const std::string& metric) -> double {
    for (const Row& row : resp.result.rows) {
      if (row[0].AsString() == metric) return row[1].AsDouble();
    }
    ADD_FAILURE() << "metric not exported: " << metric;
    return -1.0;
  };
  EXPECT_EQ(value_of("template_memo_entries"), static_cast<double>(entries));
  EXPECT_EQ(value_of("template_memo_misses_total"),
            static_cast<double>(misses));
  EXPECT_EQ(value_of("template_canonicalizations_total"),
            static_cast<double>(canon0 + 7));
}

TEST_F(ServiceTest, ApproximateExecutionThroughTheService) {
  std::string q = "SELECT call.region FROM call WHERE call.pnum = 7 AND "
                  "call.date = '2016-03-15'";
  QueryRequest request{q, QueryMode::kApproximate};
  request.approx_budget = 1000;
  auto approx = service_->Query(request);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_TRUE(approx->approx_exact);
  EXPECT_EQ(approx->eta, 1.0);
}

// The prepared fast path must reproduce full parse+bind semantics for the
// constructs the binder treats value-sensitively. Every query is checked
// against the session pipeline (which never touches the cache).
TEST_F(ServiceTest, PreparedInstantiationMatchesFullBind) {
  auto verify = [&](const std::string& sql) -> QueryResponse {
    QueryResponse got = MustExecute(sql);
    auto want = service_->session().Execute(sql);
    EXPECT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    if (want.ok()) {
      EXPECT_EQ(Sorted(got.result.rows), Sorted(want->rows)) << sql;
    }
    return got;
  };

  // Negative literals: the parser folds the sign; substitution re-applies.
  verify("SELECT call.recnum FROM call WHERE call.pnum = 7 AND "
         "call.date = '2016-03-15' AND call.recnum > -1");
  QueryResponse neg = verify(
      "SELECT call.recnum FROM call WHERE call.pnum = 8 AND "
      "call.date = '2016-03-15' AND call.recnum > -500");
  EXPECT_TRUE(neg.cache_hit);

  // DATE keyword literals.
  verify("SELECT call.region FROM call WHERE call.pnum = 7 AND "
         "call.date = DATE '2016-03-15'");
  EXPECT_TRUE(verify("SELECT call.region FROM call WHERE call.pnum = 7 AND "
                     "call.date = DATE '2016-03-16'")
                  .cache_hit);

  // LIMIT is a substitutable parameter.
  QueryResponse l1 = verify(
      "SELECT call.recnum FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15' LIMIT 1");
  QueryResponse l2 = verify(
      "SELECT call.recnum FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15' LIMIT 2");
  EXPECT_EQ(l1.result.rows.size(), 1u);
  EXPECT_EQ(l2.result.rows.size(), 2u);
  EXPECT_TRUE(l2.cache_hit);

  // ORDER BY position is consumed during binding: the slot is frozen, so
  // the second instance re-binds (no hit) and still orders correctly.
  QueryResponse o1 = verify(
      "SELECT call.recnum, call.region FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15' ORDER BY 1 DESC");
  QueryResponse o2 = verify(
      "SELECT call.recnum, call.region FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15' ORDER BY 2 DESC");
  EXPECT_FALSE(o2.cache_hit);
  EXPECT_EQ(o1.result.rows[0][0], I(101));    // ordered by recnum
  EXPECT_EQ(o2.result.rows[0][1], S("R2"));   // ordered by region

  // GROUP BY expressions with literals are frozen too: changing the
  // literal re-binds instead of silently reusing the old grouping.
  QueryResponse g1 = verify(
      "SELECT call.recnum + 1 AS r, count(*) AS n FROM call WHERE "
      "call.pnum = 7 AND call.date = '2016-03-15' GROUP BY call.recnum + 1");
  QueryResponse g2 = verify(
      "SELECT call.recnum + 2 AS r, count(*) AS n FROM call WHERE "
      "call.pnum = 7 AND call.date = '2016-03-15' GROUP BY call.recnum + 2");
  EXPECT_FALSE(g2.cache_hit);
  EXPECT_EQ(Sorted(g1.result.rows), Sorted({{I(101), I(1)}, {I(102), I(1)}}));
  EXPECT_EQ(Sorted(g2.result.rows), Sorted({{I(102), I(1)}, {I(103), I(1)}}));

  // IN-list duplicates: the binder dedups values, so the cached plan's
  // key-list arity can disagree with a later instance; the service must
  // fall back to a re-plan and stay exact.
  QueryResponse in1 = verify(
      "SELECT call.region FROM call WHERE call.pnum IN (7, 7) AND "
      "call.date = '2016-03-15'");
  QueryResponse in2 = verify(
      "SELECT call.region FROM call WHERE call.pnum IN (7, 8) AND "
      "call.date = '2016-03-15'");
  EXPECT_EQ(Sorted(in1.result.rows), Sorted({{S("R1")}, {S("R2")}}));
  EXPECT_EQ(Sorted(in2.result.rows),
            Sorted({{S("R1")}, {S("R2")}, {S("R1")}}));

  // Unaliased outputs embedding a parameter re-render their column name.
  QueryResponse n1 = MustExecute(
      "SELECT call.recnum + 10 FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15'");
  QueryResponse n2 = MustExecute(
      "SELECT call.recnum + 20 FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15'");
  EXPECT_TRUE(n2.cache_hit);
  EXPECT_NE(n1.result.column_names[0], n2.result.column_names[0]);
  EXPECT_NE(n2.result.column_names[0].find("20"), std::string::npos);
}

// Frozen-parameter variants: two instances of one template that differ in
// a frozen slot (ORDER BY position) get separate cache variants keyed on
// (template, frozen values) — they coexist and both hit, instead of
// evicting each other and re-planning every time.
TEST_F(ServiceTest, FrozenParameterVariantsCoexistInTheCache) {
  service_->set_result_cache_enabled(false);  // plan-cache mechanics under test
  std::string by_recnum =
      "SELECT call.recnum, call.region FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15' ORDER BY 1 DESC";
  std::string by_region =
      "SELECT call.recnum, call.region FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15' ORDER BY 2 DESC";
  QueryResponse first_recnum = MustExecute(by_recnum);
  QueryResponse first_region = MustExecute(by_region);
  EXPECT_FALSE(first_recnum.cache_hit);
  EXPECT_FALSE(first_region.cache_hit);  // new variant, not an eviction

  // Both variants now resident: each re-execution hits its own entry.
  QueryResponse again_recnum = MustExecute(by_recnum);
  QueryResponse again_region = MustExecute(by_region);
  EXPECT_TRUE(again_recnum.cache_hit) << "ORDER BY 1 variant was evicted";
  EXPECT_TRUE(again_region.cache_hit) << "ORDER BY 2 variant was evicted";
  EXPECT_EQ(again_recnum.result.rows[0][0], I(101));  // ordered by recnum
  EXPECT_EQ(again_region.result.rows[0][1], S("R2"));  // ordered by region

  // Substitutable parameters still roam freely within a variant.
  QueryResponse other_pnum = MustExecute(
      "SELECT call.recnum, call.region FROM call WHERE call.pnum = 8 AND "
      "call.date = '2016-03-15' ORDER BY 2 DESC");
  EXPECT_TRUE(other_pnum.cache_hit);
  EXPECT_EQ(other_pnum.result.rows[0][1], S("R1"));
}

// A template instance whose parameter drifts outside the cached literal's
// comparison family must fall back to a full bind (same masked text, but
// a fresh bind rejects it) — never execute with a mismatched probe key.
TEST_F(ServiceTest, TypeMismatchedParameterFallsBackToFullBind) {
  std::string ok_sql = "SELECT call.region FROM call WHERE call.pnum = 7 "
                       "AND call.date = '2016-03-15'";
  MustExecute(ok_sql);  // populate the template (pnum is an int column)
  // Same masked template, but a string where the int parameter was.
  auto bad = service_->Query(
      {"SELECT call.region FROM call WHERE call.pnum = 'seven' "
       "AND call.date = '2016-03-15'"});
  auto reference = service_->session().Execute(
      "SELECT call.region FROM call WHERE call.pnum = 'seven' "
      "AND call.date = '2016-03-15'");
  EXPECT_FALSE(reference.ok());  // fresh bind rejects int-vs-string compare
  EXPECT_FALSE(bad.ok());        // the cached path must agree
  // An int-vs-double drift stays within the comparison family and is fine.
  auto dbl = service_->Query(
      {"SELECT call.region FROM call WHERE call.pnum = 7.5 "
       "AND call.date = '2016-03-15'"});
  ASSERT_TRUE(dbl.ok()) << dbl.status().ToString();
  EXPECT_TRUE(dbl->result.rows.empty());  // no pnum equals 7.5
}

// ROADMAP item 2's first wrong answer: a cached template kept the literal
// type of the spelling that populated it. With t(k INT, v INT) and
// constraint k -> v, `t.k = 9007199254740993` must find its row whatever
// spelling the service saw first; an INT parameter coerced to an earlier
// DOUBLE spelling's type (`= 7.5`, `= 7.0`) probes 2^53 instead. The INT
// and DOUBLE spellings then live as separate variants of one template.
TEST(TypedTemplateVariantTest, IntProbeIsNeverCoercedToAnEarlierDoubleSpelling) {
  const std::string big = "SELECT t.v FROM t WHERE t.k = 9007199254740993";
  struct First {
    const char* sql;
    std::vector<Row> rows;
  };
  const First kFirsts[] = {
      {nullptr, {}},
      {"SELECT t.v FROM t WHERE t.k = 7.5", {}},
      {"SELECT t.v FROM t WHERE t.k = 7.0", {{I(2)}}},
  };
  for (QueryMode mode : {QueryMode::kAuto, QueryMode::kBoundedOnly}) {
    for (bool result_cache : {true, false}) {
      for (const First& first : kFirsts) {
        SCOPED_TRACE(std::string(first.sql ? first.sql : "(fresh)") +
                     ", mode " + std::to_string(static_cast<int>(mode)) +
                     ", result cache " + (result_cache ? "on" : "off"));
        ServiceOptions options;
        options.num_workers = 1;
        BeasService svc(options);
        ASSERT_TRUE(svc.CreateTable("t", Schema({{"k", TypeId::kInt64},
                                                 {"v", TypeId::kInt64}}))
                        .ok());
        ASSERT_TRUE(svc.Insert("t", {I(9007199254740993LL), I(1)}).ok());
        ASSERT_TRUE(svc.Insert("t", {I(7), I(2)}).ok());
        ASSERT_TRUE(svc.RegisterConstraint({"tk", "t", {"k"}, {"v"}, 10}).ok());
        svc.set_result_cache_enabled(result_cache);
        if (first.sql != nullptr) {
          auto resp = svc.Query({first.sql, mode});
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          EXPECT_EQ(resp->result.rows, first.rows);
        }
        auto resp = svc.Query({big, mode});
        ASSERT_TRUE(resp.ok()) << resp.status().ToString();
        EXPECT_EQ(resp->result.rows, (std::vector<Row>{{I(1)}}));
        if (first.sql == nullptr) continue;
        // The DOUBLE spelling's variant was not evicted by the INT one.
        auto again = svc.Query({first.sql, mode});
        ASSERT_TRUE(again.ok()) << again.status().ToString();
        EXPECT_EQ(again->result.rows, first.rows);
        if (!result_cache) {
          EXPECT_TRUE(again->cache_hit);
        }
      }
    }
  }
}

// Output literals of grouped/ordered queries are matched by value during
// binding; substituting only the select-list side must not silently
// detach it from GROUP BY / ORDER BY.
TEST_F(ServiceTest, GroupedAndOrderedOutputLiteralsStayConsistent) {
  std::string grouped = "SELECT call.recnum + 1 AS r, count(*) AS n FROM "
                        "call WHERE call.pnum = 7 AND call.date = "
                        "'2016-03-15' GROUP BY call.recnum + 1";
  MustExecute(grouped);
  // Select-list literal changes, GROUP BY literal does not: a fresh bind
  // rejects this; the cached path must not return mislabeled groups.
  std::string detached = "SELECT call.recnum + 5 AS r, count(*) AS n FROM "
                         "call WHERE call.pnum = 7 AND call.date = "
                         "'2016-03-15' GROUP BY call.recnum + 1";
  auto cached = service_->Query({detached});
  auto reference = service_->session().Execute(detached);
  EXPECT_FALSE(reference.ok());
  EXPECT_FALSE(cached.ok());

  // Ordered queries freeze output literals: the variant re-binds (no
  // silent reuse) and still orders correctly.
  QueryResponse o1 = MustExecute(
      "SELECT call.recnum + 1 AS r FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15' ORDER BY r DESC");
  QueryResponse o2 = MustExecute(
      "SELECT call.recnum + 9 AS r FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15' ORDER BY r DESC");
  EXPECT_FALSE(o2.cache_hit);
  EXPECT_EQ(o1.result.rows[0][0], I(102));
  EXPECT_EQ(o2.result.rows[0][0], I(110));
}

// ---------------------------------------------------------------------------
// Concurrency.
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, ConcurrentClientsWithWriterStress) {
  // This stress asserts plan-cache hit counts; the result-cache analogue
  // (with epoch invalidation under writes) lives in net_test.cc's hammer.
  service_->set_result_cache_enabled(false);
  struct Workload {
    std::string sql;
    std::vector<Row> expected;
  };
  std::vector<Workload> workloads;
  for (int pnum : {7, 8, 9}) {
    Workload w;
    w.sql = StringPrintf(
        "SELECT call.region FROM call WHERE call.pnum = %d AND "
        "call.date = '2016-03-15'",
        pnum);
    w.expected = Sorted(MustExecute(w.sql).result.rows);
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.sql =
        "SELECT call.region FROM call, business WHERE business.type = 'bank' "
        "AND business.region = 'R1' AND business.pnum = call.pnum AND "
        "call.date = '2016-03-15'";
    w.expected = Sorted(MustExecute(w.sql).result.rows);
    workloads.push_back(std::move(w));
  }

  constexpr int kReaders = 4;
  constexpr int kItersPerReader = 150;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kItersPerReader; ++i) {
        const Workload& w = workloads[(t + i) % workloads.size()];
        auto resp = service_->Query({w.sql});
        if (!resp.ok()) {
          ++failures;
          continue;
        }
        if (Sorted(resp->result.rows) != w.expected) ++mismatches;
      }
    });
  }
  // A single writer inserting rows that match no workload predicate: the
  // exclusive lock serializes it against readers, and the cache must not
  // be invalidated by it.
  std::thread writer([&] {
    for (int i = 0; i < 50; ++i) {
      Status st = service_->Insert(
          "call", {I(100000 + i), I(1), Dt("2016-01-01"), S("RX")});
      if (!st.ok()) ++failures;
    }
  });
  // And a batch through the worker pool.
  std::vector<std::future<Result<QueryResponse>>> futures;
  futures.reserve(40);
  for (int i = 0; i < 40; ++i) {
    futures.push_back(service_->Submit({workloads[i % workloads.size()].sql}));
  }

  for (std::thread& t : readers) t.join();
  writer.join();
  for (size_t i = 0; i < futures.size(); ++i) {
    auto resp = futures[i].get();
    if (!resp.ok()) {
      ++failures;
      continue;
    }
    if (Sorted(resp->result.rows) != workloads[i % workloads.size()].expected) {
      ++mismatches;
    }
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  PlanCacheStats stats = service_->cache_stats();
  EXPECT_GE(stats.hits,
            static_cast<uint64_t>(kReaders * kItersPerReader - 16));
  EXPECT_EQ(stats.invalidations, 0u);
}

// ---------------------------------------------------------------------------
// Sharded storage: the per-shard single-writer contract.
// ---------------------------------------------------------------------------

using testing_util::ShardOverrideGuard;

TEST(ShardedServiceTest, ConcurrentBatchesToDisjointShardsBothCommit) {
  // Two writer threads batching into disjoint key ranges: under the
  // per-shard contract both must succeed — no "concurrent write" error,
  // no lost rows — because each batch exclusively locks only the shards
  // its keys hash to.
  ShardOverrideGuard guard(8);
  ServiceOptions options;
  options.num_workers = 2;
  BeasService service(options);
  ASSERT_TRUE(service
                  .CreateTable("kv", Schema({{"k", TypeId::kInt64},
                                             {"v", TypeId::kInt64}}))
                  .ok());
  // The constraint nominates `k` as the shard key for future inserts.
  ASSERT_TRUE(service.RegisterConstraint({"kv_k", "kv", {"k"}, {"v"}, 64}).ok());

  constexpr int kBatches = 20;
  constexpr int kPerBatch = 25;
  std::atomic<int> failures{0};
  auto writer = [&](int base) {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Row> batch;
      for (int i = 0; i < kPerBatch; ++i) {
        int k = base + b * kPerBatch + i;
        batch.push_back({I(k), I(k * 10)});
      }
      if (!service.InsertBatch("kv", std::move(batch)).ok()) ++failures;
    }
  };
  std::thread w1(writer, 0);
  std::thread w2(writer, 1000000);
  w1.join();
  w2.join();
  EXPECT_EQ(failures.load(), 0);

  auto count = service.Query({"SELECT count(*) AS n FROM kv"});
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->result.rows.size(), 1u);
  EXPECT_EQ(count->result.rows[0][0], I(2 * kBatches * kPerBatch));
  // Every row reached its AC index (bounded point lookups see them).
  for (int k : {0, 499, 1000000, 1000499}) {
    auto got = service.Query(
        {StringPrintf("SELECT kv.v FROM kv WHERE kv.k = %d", k),
         QueryMode::kBoundedOnly});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->result.rows.size(), 1u);
    EXPECT_EQ(got->result.rows[0][0], I(k * 10));
  }
}

TEST(ShardedServiceTest, PerShardWritersAndReadersStress) {
  // Mixed load against 4-way sharded storage: four writers (row inserts
  // and batches, disjoint key ranges), readers running cached bounded
  // point queries whose answers must stay stable (their keys are never
  // written), plus beas_stats polls exercising the per-shard gauge
  // snapshot while shard locks churn.
  ShardOverrideGuard guard(4);
  ServiceOptions options;
  options.num_workers = 3;
  BeasService service(options);
  ASSERT_TRUE(service
                  .CreateTable("kv", Schema({{"k", TypeId::kInt64},
                                             {"v", TypeId::kInt64}}))
                  .ok());
  ASSERT_TRUE(
      service.RegisterConstraint({"kv_k", "kv", {"k"}, {"v"}, 64}).ok());
  for (int k = 0; k < 32; ++k) {
    ASSERT_TRUE(service.Insert("kv", {I(-k - 1), I(k)}).ok());
  }

  constexpr int kWriters = 4;
  constexpr int kRowsPerWriter = 300;
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 120;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      int base = (w + 1) * 100000;
      for (int i = 0; i < kRowsPerWriter; i += 3) {
        // Alternate single-row inserts and mini-batches.
        if (!service.Insert("kv", {I(base + i), I(base + i)}).ok()) {
          ++failures;
        }
        std::vector<Row> batch = {{I(base + i + 1), I(base + i + 1)},
                                  {I(base + i + 2), I(base + i + 2)}};
        if (!service.InsertBatch("kv", std::move(batch)).ok()) ++failures;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        int k = (r * 7 + i) % 32;
        auto resp = service.Query(
            {StringPrintf("SELECT kv.v FROM kv WHERE kv.k = %d", -k - 1)});
        if (!resp.ok()) {
          ++failures;
          continue;
        }
        if (resp->result.rows.size() != 1 ||
            !(resp->result.rows[0][0] == I(k))) {
          ++mismatches;
        }
        if (i % 24 == 0) {
          auto stats = service.Query(
              {"SELECT metric, value FROM beas_stats WHERE metric = "
               "'storage_shards'"});
          if (!stats.ok() || stats->result.rows.size() != 1 ||
              !(stats->result.rows[0][1] == Value::Double(4))) {
            ++failures;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  auto count = service.Query({"SELECT count(*) AS n FROM kv"});
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->result.rows.size(), 1u);
  EXPECT_EQ(count->result.rows[0][0], I(32 + kWriters * kRowsPerWriter));

  // The post-stress per-shard gauges add up to the live rows.
  auto shards = service.Query(
      {"SELECT value FROM beas_stats WHERE metric = 'rows_live'"});
  ASSERT_TRUE(shards.ok());
  ASSERT_EQ(shards->result.rows.size(), 1u);
  EXPECT_EQ(shards->result.rows[0][0],
            Value::Double(32 + kWriters * kRowsPerWriter));
}

TEST_F(ServiceTest, InsertBatchMaintainsIndicesLikeRowInserts) {
  // A batch through the service must be indistinguishable from row-wise
  // inserts: AC indices maintained per row, answers fresh, cache intact.
  const char* sql =
      "SELECT call.recnum FROM call WHERE call.pnum = 42 AND "
      "call.date = '2016-03-20'";
  QueryResponse before = MustExecute(sql);
  EXPECT_TRUE(before.result.rows.empty());

  std::vector<Row> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back({I(42), I(9000 + i % 10), Dt("2016-03-20"),
                     S(i % 2 == 0 ? "R1" : "R2")});
  }
  ASSERT_TRUE(service_->InsertBatch("call", std::move(batch)).ok());

  QueryResponse after = MustExecute(sql);
  EXPECT_EQ(after.result.rows.size(), 100u)
      << "bag semantics: weights carry the duplicate recnums";
  EXPECT_TRUE(after.cache_hit) << "plain batch writes must not invalidate";

  // A row that fails validation reports its index; prior rows stick.
  std::vector<Row> bad;
  bad.push_back({I(43), I(1), Dt("2016-03-20"), S("R1")});
  bad.push_back({I(44), S("not an int"), Dt("2016-03-20"), S("R1")});
  Status st = service_->InsertBatch("call", std::move(bad));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("row 1"), std::string::npos) << st.message();
  EXPECT_EQ(MustExecute("SELECT call.recnum FROM call WHERE call.pnum = 43 "
                        "AND call.date = '2016-03-20'")
                .result.rows.size(),
            1u);
}

TEST_F(ServiceTest, BeasStatsTableExposesServingHealth) {
  // Warm the cache with a parameterized template.
  for (int pnum : {7, 8, 7, 7}) {
    MustExecute(StringPrintf("SELECT call.region FROM call WHERE "
                             "call.pnum = %d AND call.date = '2016-03-15'",
                             pnum));
  }
  PlanCacheStats expect = service_->cache_stats();

  QueryResponse resp =
      MustExecute("SELECT metric, value FROM beas_stats ORDER BY metric");
  ASSERT_GE(resp.result.rows.size(), 10u);
  auto value_of = [&](const std::string& metric) -> double {
    for (const Row& row : resp.result.rows) {
      if (row[0].AsString() == metric) return row[1].AsDouble();
    }
    ADD_FAILURE() << "metric '" << metric << "' missing";
    return -1;
  };
  EXPECT_EQ(value_of("plan_cache_hits"), static_cast<double>(expect.hits));
  EXPECT_EQ(value_of("plan_cache_misses"),
            static_cast<double>(expect.misses));
  EXPECT_EQ(value_of("constraints_registered"), 2.0);
  EXPECT_EQ(value_of("tables"), 3.0);
  EXPECT_GT(value_of("dict_strings_total"), 0.0)
      << "string columns must be interned";
  // The gauges count data tables only: the catalog holds nothing else.
  double data_strings = 0;
  for (const std::string& name : service_->db()->catalog()->TableNames()) {
    const StringDict* dict =
        (*service_->db()->catalog()->GetTable(name))->heap()->dict();
    if (dict != nullptr) data_strings += static_cast<double>(dict->size());
  }
  EXPECT_EQ(value_of("dict_strings_total"), data_strings);
  EXPECT_GT(value_of("rows_live"), 0.0);
  // Columnar-tail gauges: the queries above ran bounded executions
  // through the columnar tail.
  EXPECT_GT(value_of("tail_batches_total"), 0.0);
  EXPECT_GE(value_of("tail_rows_grouped"), 0.0);

  // The snapshot is taken per query — a plan-cache hit (a new parameter
  // of the cached template, so no result-cache hit) now appears.
  MustExecute(StringPrintf("SELECT call.region FROM call WHERE "
                           "call.pnum = %d AND call.date = '2016-03-15'",
                           9));
  QueryResponse again =
      MustExecute("SELECT metric, value FROM beas_stats ORDER BY metric");
  for (const Row& row : again.result.rows) {
    if (row[0].AsString() == "plan_cache_hits") {
      EXPECT_GT(row[1].AsDouble(), static_cast<double>(expect.hits));
    }
  }
  // Aggregations over the metadata table work like any other table.
  QueryResponse count = MustExecute(
      "SELECT count(*) AS n FROM beas_stats WHERE value >= 0");
  ASSERT_EQ(count.result.rows.size(), 1u);
  EXPECT_GE(count.result.rows[0][0].AsInt64(), 10);
}

TEST(ServiceDurabilityStatsTest, DurabilityGaugesExposedThroughBeasStats) {
  auto value_of = [](const QueryResponse& resp,
                     const std::string& metric) -> double {
    for (const Row& row : resp.result.rows) {
      if (row[0].AsString() == metric) return row[1].AsDouble();
    }
    ADD_FAILURE() << "metric '" << metric << "' missing";
    return -1;
  };
  auto stats = [&](BeasService* svc) {
    return testing_util::ValueOrThrow(
        svc->Query({"SELECT metric, value FROM beas_stats ORDER BY metric"}),
        "beas_stats");
  };

  // In-memory service: the gauges exist and read zero.
  {
    ServiceOptions options;
    options.num_workers = 1;
    BeasService svc(options);
    ASSERT_TRUE(svc.CreateTable("kv", Schema({{"k", TypeId::kInt64},
                                              {"v", TypeId::kString}}))
                    .ok());
    ASSERT_TRUE(svc.Insert("kv", {I(1), S("a")}).ok());
    QueryResponse resp = stats(&svc);
    EXPECT_EQ(value_of(resp, "wal_bytes_total"), 0.0);
    EXPECT_EQ(value_of(resp, "wal_group_commits_total"), 0.0);
    EXPECT_EQ(value_of(resp, "wal_fsyncs_total"), 0.0);
    EXPECT_EQ(value_of(resp, "checkpoints_total"), 0.0);
    EXPECT_EQ(value_of(resp, "recovery_replayed_records"), 0.0);
  }

  // Durable service: writes move the WAL gauges, a checkpoint moves its
  // counter, and a restart surfaces the replay count.
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                     "/beas_svc_stats_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  ASSERT_NE(mkdtemp(buf.data()), nullptr);
  std::string dir = buf.data();
  {
    ServiceOptions options;
    options.num_workers = 1;
    options.durability.dir = dir;
    BeasService svc(options);
    ASSERT_TRUE(svc.durable()) << svc.durability_status().ToString();
    ASSERT_TRUE(svc.CreateTable("kv", Schema({{"k", TypeId::kInt64},
                                              {"v", TypeId::kString}}))
                    .ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(svc.Insert("kv", {I(i), S("a")}).ok());
    }
    ASSERT_TRUE(svc.Checkpoint().ok());
    ASSERT_TRUE(svc.Insert("kv", {I(99), S("tail")}).ok());
    QueryResponse resp = stats(&svc);
    EXPECT_GT(value_of(resp, "wal_bytes_total"), 0.0);
    EXPECT_GE(value_of(resp, "wal_group_commits_total"), 1.0);
    EXPECT_GE(value_of(resp, "wal_fsyncs_total"),
              value_of(resp, "wal_group_commits_total"));
    EXPECT_EQ(value_of(resp, "checkpoints_total"), 1.0);
    EXPECT_EQ(value_of(resp, "recovery_replayed_records"), 0.0);
  }
  {
    ServiceOptions options;
    options.num_workers = 1;
    options.durability.dir = dir;
    BeasService svc(options);
    ASSERT_TRUE(svc.durable()) << svc.durability_status().ToString();
    QueryResponse resp = stats(&svc);
    // The post-checkpoint insert replays from the WAL tail.
    EXPECT_GE(value_of(resp, "recovery_replayed_records"), 1.0);
  }
  Env::Default()->RemoveAll(dir);
}

TEST_F(ServiceTest, BeasStatsPollsLeaveNoTableInTheCatalog) {
  // A monitoring client polls once a second, forever: each poll is
  // answered from its own snapshot, so nothing accumulates in db_.
  for (int i = 0; i < 500; ++i) {
    QueryResponse resp = MustExecute("SELECT count(*) AS n FROM beas_stats");
    ASSERT_EQ(resp.result.rows.size(), 1u);
    ASSERT_GE(resp.result.rows[0][0].AsInt64(), 10);
  }
  EXPECT_FALSE(
      service_->db()->catalog()->HasTable(BeasService::kStatsTableName));
  EXPECT_EQ(service_->db()->catalog()->TableNames().size(), 3u);

  // Answers are self-contained (the snapshot's dictionary dies with the
  // poll), and an access constraint on the name finds no table.
  QueryResponse held = MustExecute("SELECT metric FROM beas_stats");
  ASSERT_FALSE(held.result.rows.empty());
  for (const Row& row : held.result.rows) {
    EXPECT_EQ(row[0].dict(), nullptr);
  }
  EXPECT_EQ(held.decision.mode,
            BeasSession::ExecutionDecision::Mode::kConventional);
  EXPECT_FALSE(held.cacheable);
  EXPECT_FALSE(held.cache_hit);
  EXPECT_FALSE(held.result_cache_hit);
  Status constraint = service_->RegisterConstraint(
      {"bad", BeasService::kStatsTableName, {"metric"}, {"value"}, 32});
  EXPECT_EQ(constraint.code(), StatusCode::kNotFound) << constraint.ToString();
}

TEST_F(ServiceTest, BeasStatsPollCompletesWhileAReaderHoldsReadScope) {
  std::promise<void> held;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread reader([&] {
    Database::ReadScope lock(service_->db());
    held.set_value();
    released.wait();
  });
  held.get_future().wait();
  std::future<Result<QueryResponse>> poll = std::async(
      std::launch::async, [&] {
        return service_->Query(
            {"SELECT value FROM beas_stats WHERE metric = 'rows_live'"});
      });
  bool finished =
      poll.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  release.set_value();
  reader.join();
  EXPECT_TRUE(finished) << "a poll must not wait for in-flight readers";
  Result<QueryResponse> resp = poll.get();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->result.rows.size(), 1u);
  EXPECT_EQ(resp->result.rows[0][0], Value::Double(10));
}

TEST_F(ServiceTest, BeasStatsPollsLeaveTheCacheCountersUnchanged) {
  MustExecute("SELECT call.region FROM call WHERE call.pnum = 7 AND "
              "call.date = '2016-03-15'");
  PlanCacheStats plans = service_->cache_stats();
  ResultCacheStats results = service_->result_cache_stats();
  for (int i = 0; i < 2; ++i) {
    QueryResponse resp =
        MustExecute("SELECT metric, value FROM beas_stats ORDER BY metric");
    EXPECT_FALSE(resp.result.rows.empty());
  }
  PlanCacheStats plans_after = service_->cache_stats();
  ResultCacheStats results_after = service_->result_cache_stats();
  EXPECT_EQ(plans_after.hits, plans.hits);
  EXPECT_EQ(plans_after.misses, plans.misses);
  EXPECT_EQ(plans_after.invalidations, plans.invalidations);
  EXPECT_EQ(plans_after.uncacheable, plans.uncacheable);
  EXPECT_EQ(plans_after.entries, plans.entries);
  EXPECT_EQ(results_after.hits, results.hits);
  EXPECT_EQ(results_after.misses, results.misses);
  EXPECT_EQ(results_after.invalidations, results.invalidations);
  EXPECT_EQ(results_after.entries, results.entries);
  EXPECT_EQ(results_after.bytes, results.bytes);
}

TEST_F(ServiceTest, BeasStatsCheckModeIsStableAcrossPolls) {
  const char* sql = "SELECT metric, value FROM beas_stats";
  Result<QueryResponse> before = service_->Query({sql, QueryMode::kCheckOnly});
  MustExecute(sql);
  Result<QueryResponse> after = service_->Query({sql, QueryMode::kCheckOnly});
  EXPECT_EQ(before.status().code(), after.status().code())
      << before.status().ToString() << " vs " << after.status().ToString();
  EXPECT_EQ(before.status().code(), StatusCode::kBindError);
}

TEST_F(ServiceTest, OnlyStatsOnlyAutoRequestsReachTheSnapshot) {
  // The name inside a string literal: an ordinary query over `call`.
  QueryResponse literal = MustExecute(
      "SELECT call.recnum FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15' AND call.region <> 'beas_stats'");
  EXPECT_EQ(literal.result.rows.size(), 2u);
  EXPECT_EQ(literal.decision.mode,
            BeasSession::ExecutionDecision::Mode::kBounded);
  // Joins with data tables and the other modes see an unknown table.
  for (QueryRequest request :
       {QueryRequest{"SELECT call.recnum FROM call, beas_stats WHERE "
                     "call.pnum = 7"},
        QueryRequest{"SELECT metric FROM beas_stats",
                     QueryMode::kBoundedOnly}}) {
    Result<QueryResponse> resp = service_->Query(request);
    EXPECT_EQ(resp.status().code(), StatusCode::kBindError)
        << request.sql << ": " << resp.status().ToString();
  }
}

TEST(ServiceReservedNameTest, CreateTableRejectsTheStatsTableName) {
  const Schema schema({{"metric", TypeId::kString}, {"value", TypeId::kDouble}});
  {
    BeasService svc;
    for (const char* name : {"beas_stats", "BEAS_Stats"}) {
      EXPECT_EQ(svc.CreateTable(name, schema).status().code(),
                StatusCode::kInvalidArgument)
          << name;
    }
    EXPECT_TRUE(svc.db()->catalog()->TableNames().empty());
  }
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                     "/beas_svc_reserved_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  ASSERT_NE(mkdtemp(buf.data()), nullptr);
  std::string dir = buf.data();
  {
    ServiceOptions options;
    options.num_workers = 1;
    options.durability.dir = dir;
    BeasService svc(options);
    ASSERT_TRUE(svc.durable()) << svc.durability_status().ToString();
    EXPECT_EQ(svc.CreateTable("beas_stats", schema).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(svc.db()->catalog()->TableNames().empty());
  }
  Env::Default()->RemoveAll(dir);
}

// ---------------------------------------------------------------------------
// Overload & failure resilience: deadlines, admission control, bounded
// submit queue, and the beas_stats gauges that expose them.
// ---------------------------------------------------------------------------

/// Arms test sleep points (fail::ArmForTesting syntax) and guarantees
/// disarming, so a failing assertion cannot leak an armed point into
/// later tests.
struct ServiceFailGuard {
  explicit ServiceFailGuard(const char* spec) { fail::ArmForTesting(spec); }
  ~ServiceFailGuard() { fail::ArmForTesting(nullptr); }
};

class ResilienceTest : public ServiceTest {
 protected:
  // Each test constructs its own service with its own overload knobs.
  void SetUp() override {}

  void Start(const ServiceOptions& options) {
    service_ = std::make_unique<BeasService>(options);
    Populate(service_.get());
  }

  // Single-step covered template (deduced bound = psi1's N = 500).
  static constexpr const char* kCallQuery =
      "SELECT call.region FROM call WHERE call.pnum = 7 AND "
      "call.date = '2016-03-15'";
  // The same query with its pnum predicate repeated: an uncacheable
  // template (two constants on one attribute class) that bypasses the plan
  // cache yet must take the same admitted, deadline-aware bounded path.
  static constexpr const char* kUncacheableCallQuery =
      "SELECT call.region FROM call WHERE call.pnum = 7 AND "
      "call.pnum = 7 AND call.date = '2016-03-15'";
  // Two-step chain: psi3 fetches the bank pnums, psi1 fetches their calls
  // — a tiny fetch budget exhausts mid-chain and shrinks η below 1.
  static constexpr const char* kJoinQuery =
      "SELECT call.region FROM call, business WHERE business.type = 'bank' "
      "AND business.region = 'R1' AND business.pnum = call.pnum AND "
      "call.date = '2016-03-15'";
};

TEST_F(ResilienceTest, CancelAndDeadlineReturnHonestPartialAnswers) {
  Start(ServiceOptions{});
  // Deadline/cancel semantics of *execution* under test — a result-cache
  // hit would (correctly) serve the full answer instantly instead.
  service_->set_result_cache_enabled(false);
  for (const char* sql : {kCallQuery, kUncacheableCallQuery}) {
    SCOPED_TRACE(sql);
    const uint64_t timed_out_before =
        service_->service_counters().queries_timed_out_total;
    QueryResponse full = MustExecute(sql);
    EXPECT_FALSE(full.timed_out);
    EXPECT_EQ(full.eta, 1.0);
    ASSERT_FALSE(full.result.rows.empty());

    // A pre-set cancel token expires at the very first poll: every probe
    // key goes unserved, exactly like an exhausted budget — partial
    // answer, honest η, never an error.
    std::atomic<bool> cancel{true};
    QueryOptions cancelled;
    cancelled.cancel = &cancel;
    auto resp = service_->Query({sql, QueryMode::kAuto, cancelled});
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_TRUE(resp->timed_out);
    EXPECT_LT(resp->eta, 1.0);
    EXPECT_TRUE(resp->result.rows.empty());

    // A real deadline, forced open deterministically: the exec_step fail
    // point sleeps past the 1ms deadline before the first expiry poll.
    {
      ServiceFailGuard slow("exec_step=sleep(30)@*");
      QueryOptions deadline;
      deadline.timeout_millis = 1;
      auto timed = service_->Query({sql, QueryMode::kAuto, deadline});
      ASSERT_TRUE(timed.ok()) << timed.status().ToString();
      EXPECT_TRUE(timed->timed_out);
      EXPECT_LT(timed->eta, 1.0);
    }
    EXPECT_GE(service_->service_counters().queries_timed_out_total,
              timed_out_before + 2);

    // The service stays consistent: the same template answers in full
    // again.
    QueryResponse after = MustExecute(sql);
    EXPECT_FALSE(after.timed_out);
    EXPECT_EQ(Sorted(after.result.rows), Sorted(full.result.rows));
  }
}

TEST_F(ResilienceTest, AdmissionDegradesBeforeRejecting) {
  ServiceOptions options;
  options.num_workers = 2;
  options.max_inflight_cost = 100;  // < the query's deduced bound of 500
  Start(options);
  service_->set_result_cache_enabled(false);  // admission mechanics under test

  // Alone, the query does not fit whole: it is admitted degraded under the
  // remaining grant, and with so few actual rows the answer is still
  // complete (η = 1) — degradation caps resources, not correctness.
  auto reference = service_->session().Execute(kCallQuery);
  ASSERT_TRUE(reference.ok());
  for (const char* sql : {kCallQuery, kUncacheableCallQuery}) {
    SCOPED_TRACE(sql);
    const uint64_t degraded_before =
        service_->service_counters().queries_degraded_total;
    auto degraded = service_->Query({sql});
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_TRUE(degraded->degraded);
    EXPECT_EQ(Sorted(degraded->result.rows), Sorted(reference->rows));
    EXPECT_GE(service_->service_counters().queries_degraded_total,
              degraded_before + 1);
    EXPECT_EQ(service_->service_counters().inflight_cost, 0u)
        << "admission must be released after the query finishes";
  }

  // Saturation: park one query mid-chain (exec_step sleeps), so its grant
  // holds the whole budget; a second arrival finds no cost left and is
  // rejected — typed, immediate, no queueing.
  {
    ServiceFailGuard slow("exec_step=sleep(200)@*");
    std::thread holder([&] {
      auto resp = service_->Query({kCallQuery});
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    });
    bool held = false;
    for (int i = 0; i < 2000; ++i) {
      if (service_->service_counters().inflight_cost >=
          options.max_inflight_cost) {
        held = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(held) << "holder never charged the admission budget";
    if (held) {
      auto rejected = service_->Query({kCallQuery});
      ASSERT_FALSE(rejected.ok());
      EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
          << rejected.status().ToString();
      EXPECT_NE(rejected.status().message().find("admission"),
                std::string::npos)
          << rejected.status().message();
    }
    holder.join();
  }
  EXPECT_GE(service_->service_counters().queries_rejected_total, 1u);

  // Pressure gone, the service serves normally again.
  QueryResponse after = MustExecute(kCallQuery);
  EXPECT_EQ(Sorted(after.result.rows), Sorted(reference->rows));
}

TEST_F(ResilienceTest, MinEtaRefusesTooPartialAnswers) {
  Start(ServiceOptions{});

  // fetch_budget=1: step one serves the bank key (2 pnums fetched), step
  // two finds the budget spent after its first key — η drops below 1.
  QueryOptions partial;
  partial.fetch_budget = 1;
  auto resp = service_->Query({kJoinQuery, QueryMode::kAuto, partial});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_LT(resp->eta, 1.0);
  EXPECT_FALSE(resp->timed_out);

  // The same partial answer is refused when the client demands more
  // coverage than the budget can deliver.
  QueryOptions strict = partial;
  strict.min_eta = 0.9;
  auto refused = service_->Query({kJoinQuery, QueryMode::kAuto, strict});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("min_eta"), std::string::npos)
      << refused.status().message();
  EXPECT_GE(service_->service_counters().queries_rejected_total, 1u);
}

// kApproximate is self-bounded by its budget, so it skips admission, but
// it runs through the same deadline-aware covered path as the execution
// modes: a cancel token, a deadline and a min_eta contract hold for it.
TEST_F(ResilienceTest, ApproximateObservesACancelToken) {
  Start(ServiceOptions{});
  std::atomic<bool> cancel{true};
  QueryRequest request{kCallQuery, QueryMode::kApproximate};
  request.approx_budget = 1000;
  request.options.cancel = &cancel;
  auto resp = service_->Query(request);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->timed_out);
  EXPECT_LT(resp->eta, 1.0);
  EXPECT_FALSE(resp->approx_exact);
  EXPECT_TRUE(resp->result.rows.empty());
}

TEST_F(ResilienceTest, ApproximateObservesAnExpiredDeadline) {
  Start(ServiceOptions{});
  const uint64_t timed_out_before =
      service_->service_counters().queries_timed_out_total;
  // The exec_step fail point sleeps past the 1 ms deadline before the
  // first expiry poll, so the deadline has passed when probing starts.
  ServiceFailGuard slow("exec_step=sleep(30)@*");
  QueryRequest request{kCallQuery, QueryMode::kApproximate};
  request.approx_budget = 1000;
  request.options.timeout_millis = 1;
  auto resp = service_->Query(request);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->timed_out);
  EXPECT_LT(resp->eta, 1.0);
  EXPECT_FALSE(resp->approx_exact);
  EXPECT_EQ(service_->service_counters().queries_timed_out_total,
            timed_out_before + 1);
}

TEST_F(ResilienceTest, ApproximateRefusesAnAnswerBelowMinEta) {
  Start(ServiceOptions{});
  // Budget 1: step two of the join finds the budget spent, so η < 1.
  QueryRequest request{kJoinQuery, QueryMode::kApproximate};
  request.approx_budget = 1;
  auto partial = service_->Query(request);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_LT(partial->eta, 1.0);
  EXPECT_FALSE(partial->approx_exact);

  const uint64_t rejected_before =
      service_->service_counters().queries_rejected_total;
  request.options.min_eta = 0.9;
  auto refused = service_->Query(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("min_eta"), std::string::npos)
      << refused.status().message();
  EXPECT_EQ(service_->service_counters().queries_rejected_total,
            rejected_before + 1);
}

TEST_F(ResilienceTest, PartialAnswersCachedOnlyUnderMinEtaContract) {
  Start(ServiceOptions{});

  // A budget-capped partial answer (η < 1, no min_eta contract) is honest
  // but incomplete — it must never be replayed from the cache. Budget 3:
  // step one fetches the 2 bank pnums, step two serves one of their two
  // call keys before the budget runs out — η lands at 1/2.
  QueryOptions partial;
  partial.fetch_budget = 3;
  auto p1 = service_->Query({kJoinQuery, QueryMode::kAuto, partial});
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  ASSERT_LT(p1->eta, 1.0);
  ASSERT_GT(p1->eta, 0.0);
  auto p2 = service_->Query({kJoinQuery, QueryMode::kAuto, partial});
  ASSERT_TRUE(p2.ok());
  EXPECT_FALSE(p2->result_cache_hit);

  // With an explicit min_eta contract the partial answer IS the agreed
  // deliverable: it caches, and replays only for that same contract.
  QueryOptions contract = partial;
  contract.min_eta = 0.01;
  auto c1 = service_->Query({kJoinQuery, QueryMode::kAuto, contract});
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  EXPECT_FALSE(c1->result_cache_hit);
  auto c2 = service_->Query({kJoinQuery, QueryMode::kAuto, contract});
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(c2->result_cache_hit);
  EXPECT_EQ(c2->result.rows, c1->result.rows);
  EXPECT_EQ(c2->eta, c1->eta);

  // Timed-out answers reflect a deadline, not the data: never cached.
  std::atomic<bool> cancel{true};
  QueryOptions cancelled;
  cancelled.cancel = &cancel;
  auto t1 = service_->Query({kCallQuery, QueryMode::kAuto, cancelled});
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t1->timed_out);
  auto t2 = service_->Query({kCallQuery, QueryMode::kAuto, cancelled});
  ASSERT_TRUE(t2.ok());
  EXPECT_FALSE(t2->result_cache_hit);
}

TEST_F(ResilienceTest, ResultCacheHitBypassesAdmission) {
  ServiceOptions options;
  options.num_workers = 2;
  options.max_inflight_cost = 100;  // < the query's deduced bound of 500
  Start(options);

  // Warm the cache. Under this grant the first execution is degraded
  // (admission caps resources), so it is not cached; insist on the partial
  // contract so the warm-up entry actually lands.
  QueryOptions contract;
  contract.min_eta = 0.5;
  auto warm = service_->Query({kCallQuery, QueryMode::kAuto, contract});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_GE(warm->eta, 0.5);

  // Saturate admission: a holder parks mid-chain with the whole budget.
  // A cold query is rejected, but the cached one answers instantly — hits
  // consume no admission grant at all.
  ServiceFailGuard slow("exec_step=sleep(200)@*");
  std::thread holder([&] {
    auto resp = service_->Query({kJoinQuery});
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  });
  bool held = false;
  for (int i = 0; i < 2000; ++i) {
    if (service_->service_counters().inflight_cost > 0) {
      held = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(held) << "holder never charged the admission budget";
  auto served = service_->Query({kCallQuery, QueryMode::kAuto, contract});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->result_cache_hit);
  EXPECT_EQ(served->result.rows, warm->result.rows);
  holder.join();
}

TEST_F(ResilienceTest, SubmitQueueIsBounded) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  Start(options);

  // Park the only worker mid-query; the second submission finds the queue
  // full and resolves immediately with the typed rejection.
  ServiceFailGuard slow("exec_step=sleep(100)@*");
  auto first = service_->Submit({kCallQuery});
  auto second = service_->Submit({kCallQuery});
  auto rejected = second.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("queue"), std::string::npos)
      << rejected.status().message();

  auto accepted = first.get();
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_FALSE(accepted->result.rows.empty());
  EXPECT_GE(service_->service_counters().queries_rejected_total, 1u);

  // The depth gauge drains back to zero (the worker decrements after
  // resolving the future, so poll briefly).
  bool drained = false;
  for (int i = 0; i < 2000; ++i) {
    if (service_->service_counters().submit_queue_depth == 0) {
      drained = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(drained);
}

TEST_F(ResilienceTest, ResilienceGaugesExposedThroughBeasStats) {
  ServiceOptions options;
  options.max_inflight_cost = 100;
  Start(options);
  service_->set_result_cache_enabled(false);  // admission mechanics under test

  // Drive one of each: a degraded query, a cancelled one, a min_eta
  // rejection.
  ASSERT_TRUE(service_->Query({kCallQuery}).ok());
  std::atomic<bool> cancel{true};
  QueryOptions cancelled;
  cancelled.cancel = &cancel;
  ASSERT_TRUE(service_->Query({kCallQuery, QueryMode::kAuto, cancelled}).ok());
  QueryOptions strict;
  strict.fetch_budget = 1;
  strict.min_eta = 0.9;
  ASSERT_FALSE(service_->Query({kJoinQuery, QueryMode::kAuto, strict}).ok());

  QueryResponse resp =
      MustExecute("SELECT metric, value FROM beas_stats ORDER BY metric");
  auto value_of = [&](const std::string& metric) -> double {
    for (const Row& row : resp.result.rows) {
      if (row[0].AsString() == metric) return row[1].AsDouble();
    }
    ADD_FAILURE() << "metric '" << metric << "' missing";
    return -1;
  };
  EXPECT_GE(value_of("queries_degraded_total"), 1.0);
  EXPECT_GE(value_of("queries_timed_out_total"), 1.0);
  EXPECT_GE(value_of("queries_rejected_total"), 1.0);
  EXPECT_EQ(value_of("submit_queue_depth"), 0.0);
  // In-memory service: the WAL resilience gauges exist and read zero.
  EXPECT_EQ(value_of("wal_retries_total"), 0.0);
  EXPECT_EQ(value_of("wal_latched_shards"), 0.0);
  // Likewise the integrity gauges.
  EXPECT_EQ(value_of("scrub_cycles_total"), 0.0);
  EXPECT_EQ(value_of("scrub_corruptions_found"), 0.0);
  EXPECT_EQ(value_of("scrub_repairs_total"), 0.0);
  EXPECT_EQ(value_of("quarantined_shards"), 0.0);
  EXPECT_EQ(value_of("env_injected_faults"), 0.0);
  // An in-process service (no wire server attached) reports the network
  // gauges as zeros — present, uniform, just quiet.
  EXPECT_EQ(value_of("net_connections_open"), 0.0);
  EXPECT_EQ(value_of("net_requests_total"), 0.0);
  EXPECT_EQ(value_of("net_bytes_in_total"), 0.0);
  EXPECT_EQ(value_of("net_bytes_out_total"), 0.0);
  EXPECT_EQ(value_of("tenant_rejected_total"), 0.0);
  EXPECT_EQ(value_of("tenant_inflight_cost_max"), 0.0);
}

TEST_F(ResilienceTest, TenantAdmissionCountersAndBeasStatsGauges) {
  ServiceOptions options;
  options.num_workers = 2;
  options.max_inflight_cost = 10000;     // roomy global pool
  options.tenant_cost_caps["beta"] = 100;  // < the query's bound of 500
  Start(options);
  service_->set_result_cache_enabled(false);  // admission mechanics under test

  // Alone, beta's query exceeds its cap and is admitted degraded — the
  // grant caps resources, not correctness.
  QueryRequest beta_request;
  beta_request.sql = kCallQuery;
  beta_request.tenant = "beta";
  auto degraded = service_->Query(beta_request);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  TenantCounters beta = service_->tenant_counters("beta");
  EXPECT_GE(beta.degraded_total, 1u);
  EXPECT_EQ(beta.inflight_cost, 0u) << "tenant charge must be released";
  EXPECT_GE(beta.inflight_cost_max, 1u);

  // Alpha (uncapped tenant) is untouched by beta's squeeze.
  QueryRequest alpha_request;
  alpha_request.sql = kCallQuery;
  alpha_request.tenant = "alpha";
  auto alpha = service_->Query(alpha_request);
  ASSERT_TRUE(alpha.ok());
  EXPECT_FALSE(alpha->degraded);

  // Saturate beta: park one beta query so its grant holds the whole
  // tenant cap; the next beta arrival is rejected while alpha still runs.
  {
    ServiceFailGuard slow("exec_step=sleep(200)@*");
    std::thread holder([&] {
      auto resp = service_->Query(beta_request);
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    });
    bool held = false;
    for (int i = 0; i < 2000; ++i) {
      if (service_->tenant_counters("beta").inflight_cost >= 100) {
        held = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(held) << "holder never charged the tenant budget";
    if (held) {
      auto rejected = service_->Query(beta_request);
      ASSERT_FALSE(rejected.ok());
      EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
      EXPECT_NE(rejected.status().message().find("tenant"),
                std::string::npos)
          << rejected.status().message();
      auto fine = service_->Query(alpha_request);
      EXPECT_TRUE(fine.ok()) << fine.status().ToString();
    }
    holder.join();
  }
  beta = service_->tenant_counters("beta");
  EXPECT_GE(beta.rejected_total, 1u);
  EXPECT_GE(beta.requests_total, 3u);
  EXPECT_EQ(beta.inflight_cost, 0u);
  EXPECT_GE(beta.inflight_cost_max, 100u);
  // A tenant never seen reads as zeros, not an error.
  EXPECT_EQ(service_->tenant_counters("nobody").requests_total, 0u);

  // The aggregate tenant gauges surface through beas_stats.
  QueryResponse resp =
      MustExecute("SELECT metric, value FROM beas_stats ORDER BY metric");
  auto value_of = [&](const std::string& metric) -> double {
    for (const Row& row : resp.result.rows) {
      if (row[0].AsString() == metric) return row[1].AsDouble();
    }
    ADD_FAILURE() << "metric '" << metric << "' missing";
    return -1;
  };
  EXPECT_GE(value_of("tenant_rejected_total"), 1.0);
  EXPECT_GE(value_of("tenant_inflight_cost_max"), 100.0);
}

TEST(ServiceScrubStatsTest, ScrubGaugesAdvanceThroughBeasStats) {
  testing_util::ShardOverrideGuard shards(1);
  FaultInjectingEnv env(17);
  ServiceOptions options;
  options.num_workers = 1;
  options.durability.dir = "/svcscrubfs/data";
  options.durability.env = &env;
  BeasService svc(options);
  ASSERT_TRUE(svc.durable()) << svc.durability_status().ToString();
  ASSERT_TRUE(svc.CreateTable("kv", Schema({{"k", TypeId::kInt64},
                                            {"v", TypeId::kString}}))
                  .ok());
  ASSERT_TRUE(svc.Insert("kv", {I(1), S("a")}).ok());
  ASSERT_TRUE(svc.Checkpoint().ok());
  // Cold rot in the checkpoint's row segment; the scrub detects it and
  // repairs by re-checkpointing the (trustworthy) in-memory copy.
  ASSERT_TRUE(
      env.FlipBit("/svcscrubfs/data/seg/ck1/t_kv.s0.seg", 24, 1).ok());
  ASSERT_TRUE(svc.Scrub().ok());

  auto resp =
      svc.Query({"SELECT metric, value FROM beas_stats ORDER BY metric"});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  auto value_of = [&](const std::string& metric) -> double {
    for (const Row& row : resp->result.rows) {
      if (row[0].AsString() == metric) return row[1].AsDouble();
    }
    ADD_FAILURE() << "metric '" << metric << "' missing";
    return -1;
  };
  EXPECT_GE(value_of("scrub_cycles_total"), 1.0);
  EXPECT_GE(value_of("scrub_corruptions_found"), 1.0);
  EXPECT_GE(value_of("scrub_repairs_total"), 1.0);
  EXPECT_EQ(value_of("quarantined_shards"), 0.0);
  EXPECT_GE(value_of("env_injected_faults"), 1.0);
}

TEST(ServiceWalRetryStatsTest, WalRetryGaugesAdvanceThroughBeasStats) {
  FaultInjectingEnv env(19);
  ServiceOptions options;
  options.num_workers = 1;
  options.durability.dir = "/svcretryfs/data";
  options.durability.env = &env;
  BeasService svc(options);
  ASSERT_TRUE(svc.durable()) << svc.durability_status().ToString();
  ASSERT_TRUE(svc.CreateTable("kv", Schema({{"k", TypeId::kInt64},
                                            {"v", TypeId::kString}}))
                  .ok());
  // One transient group-commit fault (the WAL fsync fails once): the
  // drainer retries, the write lands, and the retry counter surfaces
  // through beas_stats.
  env.ArmFault(FaultInjectingEnv::FaultOp::kSync, "/wal/shard_",
               FaultInjectingEnv::Fault::kFail);
  ASSERT_TRUE(svc.Insert("kv", {I(1), S("a")}).ok());
  env.ClearFaults();
  auto resp =
      svc.Query({"SELECT metric, value FROM beas_stats ORDER BY metric"});
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  double retries = -1, latched = -1;
  for (const Row& row : resp->result.rows) {
    if (row[0].AsString() == "wal_retries_total") {
      retries = row[1].AsDouble();
    }
    if (row[0].AsString() == "wal_latched_shards") {
      latched = row[1].AsDouble();
    }
  }
  EXPECT_GE(retries, 1.0);
  EXPECT_EQ(latched, 0.0) << "a transient fault must not latch the shard";
}

}  // namespace
}  // namespace beas
