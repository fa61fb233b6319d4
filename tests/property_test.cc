// Randomized differential testing: random micro-databases, random access
// schemas whose bounds are profiled from the data (so D |= A by
// construction), and random queries. Invariants checked per seed:
//
//   P1. All engines agree: BEAS (whatever mode its checker picks),
//       PostgreSQL-like, MySQL-like, MariaDB-like — identical multisets.
//   P2. The naive cartesian-product reference agrees (non-aggregate).
//   P3. When covered, actual fetched tuples <= the deduced bound M.
//   P4. The deduced bound is independent of |D|: re-checking after
//       doubling the data yields the same M.
//
// P5–P9 hold the vectorized executor bit-identical to the reference path;
// P10 checks whole answers served by BeasService against the conventional
// engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <memory>

#include "bounded/beas_session.h"
#include "common/exec_control.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/shard_config.h"
#include "common/task_pool.h"
#include "discovery/profiler.h"
#include "service/beas_service.h"
#include "support/reference_executor.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::I;

struct RandomDb {
  std::unique_ptr<Database> db;
  std::unique_ptr<AsCatalog> catalog;
  std::unique_ptr<BeasSession> session;
  std::vector<std::string> tables;
  std::vector<size_t> arity;
};

/// Builds 2 tables with small integer domains and conforming constraints.
RandomDb BuildRandomDb(Rng* rng, bool double_data = false) {
  RandomDb out;
  out.db = std::make_unique<Database>();
  size_t num_tables = 2;
  for (size_t t = 0; t < num_tables; ++t) {
    std::string name = "t" + std::to_string(t);
    size_t cols = static_cast<size_t>(rng->Uniform(3, 4));
    Schema schema;
    for (size_t c = 0; c < cols; ++c) {
      schema.AddColumn({"c" + std::to_string(c), TypeId::kInt64});
    }
    auto info = out.db->CreateTable(name, schema);
    EXPECT_TRUE(info.ok());
    size_t rows = static_cast<size_t>(rng->Uniform(15, 40));
    // Row values come from a derived generator so that doubling the row
    // count (P4's scale test) does not shift the structural draws below —
    // the doubled database is then a superset with identical schema.
    Rng value_rng(static_cast<uint64_t>(rng->Uniform(0, 1 << 30)));
    if (double_data) rows *= 2;
    for (size_t r = 0; r < rows; ++r) {
      Row row;
      for (size_t c = 0; c < cols; ++c) {
        row.push_back(I(value_rng.Uniform(0, 4)));
      }
      EXPECT_TRUE(out.db->Insert(name, row).ok());
    }
    out.tables.push_back(name);
    out.arity.push_back(cols);
  }

  // Random constraints with N = observed maximum (conforms by construction).
  out.catalog = std::make_unique<AsCatalog>(out.db.get());
  for (size_t t = 0; t < num_tables; ++t) {
    TableInfo* info = *out.db->catalog()->GetTable(out.tables[t]);
    int num_constraints = static_cast<int>(rng->Uniform(2, 4));
    for (int k = 0; k < num_constraints; ++k) {
      CandidatePattern pattern;
      pattern.table = out.tables[t];
      size_t x = static_cast<size_t>(rng->Uniform(0,
          static_cast<int64_t>(out.arity[t]) - 1));
      pattern.x_attrs = {"c" + std::to_string(x)};
      if (rng->Chance(0.4)) {
        size_t x2 = static_cast<size_t>(rng->Uniform(0,
            static_cast<int64_t>(out.arity[t]) - 1));
        if (x2 != x) pattern.x_attrs.push_back("c" + std::to_string(x2));
      }
      for (size_t c = 0; c < out.arity[t]; ++c) {
        std::string name = "c" + std::to_string(c);
        bool in_x = false;
        for (const auto& xa : pattern.x_attrs) in_x |= (xa == name);
        if (!in_x && rng->Chance(0.7)) pattern.y_attrs.push_back(name);
      }
      if (pattern.y_attrs.empty()) continue;
      auto profile = ProfileCandidate(*info->heap(), pattern);
      if (!profile.ok() || profile->num_keys == 0) continue;
      AccessConstraint constraint;
      constraint.name =
          "r" + std::to_string(t) + "_" + std::to_string(k);
      constraint.table = pattern.table;
      constraint.x_attrs = pattern.x_attrs;
      constraint.y_attrs = pattern.y_attrs;
      constraint.limit_n = profile->observed_n;
      Status st = out.catalog->Register(constraint);
      (void)st;  // duplicates are fine to skip
    }
  }
  out.session = std::make_unique<BeasSession>(out.db.get(), out.catalog.get());
  return out;
}

/// Builds a random query over the two tables. Always at least one constant
/// equality so results stay small.
std::string BuildRandomQuery(Rng* rng, const RandomDb& /*env*/,
                             bool* aggregate) {
  bool two_atoms = rng->Chance(0.7);
  *aggregate = rng->Chance(0.3);
  std::string from = "t0 a";
  if (two_atoms) from += ", t1 b";

  std::vector<std::string> conjuncts;
  conjuncts.push_back("a.c0 = " + std::to_string(rng->Uniform(0, 4)));
  if (two_atoms) {
    // A join predicate and optionally more filters.
    conjuncts.push_back(
        "a.c" + std::to_string(rng->Uniform(0, 2)) + " = b.c" +
        std::to_string(rng->Uniform(0, 2)));
    if (rng->Chance(0.5)) {
      conjuncts.push_back("b.c1 IN (" + std::to_string(rng->Uniform(0, 2)) +
                          ", " + std::to_string(rng->Uniform(2, 4)) + ")");
    }
  }
  if (rng->Chance(0.4)) {
    conjuncts.push_back("a.c1 <= " + std::to_string(rng->Uniform(1, 4)));
  }
  if (rng->Chance(0.2)) {
    conjuncts.push_back("(a.c2 = 1 OR a.c2 = 2)");
  }

  std::string where;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    where += (i == 0 ? " WHERE " : " AND ") + conjuncts[i];
  }

  std::string select;
  if (*aggregate) {
    select = "SELECT a.c1, count(*) AS n, sum(a.c2) AS s FROM " + from +
             where + " GROUP BY a.c1";
  } else {
    select = "SELECT ";
    if (rng->Chance(0.3)) select += "DISTINCT ";
    select += "a.c1, a.c2";
    if (two_atoms) select += ", b.c0";
    select += " FROM " + from + where;
  }
  return select;
}

class RandomizedParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedParity, EnginesAgreeAndBoundsHold) {
  Rng rng(GetParam() * 7919 + 13);
  RandomDb env = BuildRandomDb(&rng);
  for (int q = 0; q < 6; ++q) {
    bool aggregate = false;
    std::string sql = BuildRandomQuery(&rng, env, &aggregate);
    SCOPED_TRACE(sql);

    BeasSession::ExecutionDecision decision;
    auto beas = env.session->Execute(sql, &decision);
    ASSERT_TRUE(beas.ok()) << beas.status().ToString();
    auto pg = env.db->Query(sql, EngineProfile::PostgresLike());
    ASSERT_TRUE(pg.ok()) << pg.status().ToString();
    auto my = env.db->Query(sql, EngineProfile::MySqlLike());
    ASSERT_TRUE(my.ok());
    auto maria = env.db->Query(sql, EngineProfile::MariaDbLike());
    ASSERT_TRUE(maria.ok());

    // P1: all engines agree.
    EXPECT_TRUE(RowMultisetsEqual(beas->rows, pg->rows))
        << "BEAS(" << static_cast<int>(decision.mode) << ") vs pg: "
        << beas->rows.size() << " vs " << pg->rows.size();
    EXPECT_TRUE(RowMultisetsEqual(pg->rows, my->rows));
    EXPECT_TRUE(RowMultisetsEqual(pg->rows, maria->rows));

    // P2: the naive reference agrees on non-aggregate queries.
    if (!aggregate) {
      auto bound = env.db->Bind(sql);
      ASSERT_TRUE(bound.ok());
      auto naive = testing_util::NaiveEvaluate(*bound);
      ASSERT_TRUE(naive.ok());
      EXPECT_TRUE(RowMultisetsEqual(pg->rows, *naive));
    }

    // P3: bound honored when the checker accepted.
    auto coverage = env.session->Check(sql);
    ASSERT_TRUE(coverage.ok());
    if (coverage->covered && !coverage->unsatisfiable) {
      auto bounded = env.session->ExecuteBounded(sql);
      ASSERT_TRUE(bounded.ok());
      EXPECT_LE(bounded->tuples_accessed, coverage->plan.total_access_bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedParity,
                         ::testing::Range<uint64_t>(0, 20));

class BoundScaleIndependence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundScaleIndependence, DeducedBoundUnchangedByDataGrowth) {
  // P4: M depends on Q and A only. Build two databases from the same seed,
  // one with twice the rows, register the SAME constraints (bounds from the
  // smaller profile scaled up so both conform), and compare deduced bounds.
  Rng rng_a(GetParam() * 104729 + 7);
  Rng rng_b(GetParam() * 104729 + 7);
  RandomDb small = BuildRandomDb(&rng_a);
  RandomDb large = BuildRandomDb(&rng_b, /*double_data=*/true);

  // Align the large catalog to the small one's constraints (same A).
  auto* fresh_catalog = new AsCatalog(large.db.get());
  for (const AccessConstraint& c : small.catalog->schema().constraints()) {
    AccessConstraint copy = c;
    copy.limit_n = c.limit_n * 4 + 8;  // loose enough for the larger D
    ASSERT_TRUE(fresh_catalog->Register(copy).ok());
  }
  auto* small_aligned = new AsCatalog(small.db.get());
  for (const AccessConstraint& c : small.catalog->schema().constraints()) {
    AccessConstraint copy = c;
    copy.limit_n = c.limit_n * 4 + 8;  // the SAME declared bounds
    ASSERT_TRUE(small_aligned->Register(copy).ok());
  }
  BeasSession session_small(small.db.get(), small_aligned);
  BeasSession session_large(large.db.get(), fresh_catalog);

  Rng qrng(GetParam() * 31 + 5);
  for (int q = 0; q < 4; ++q) {
    bool aggregate = false;
    std::string sql = BuildRandomQuery(&qrng, small, &aggregate);
    SCOPED_TRACE(sql);
    auto ca = session_small.Check(sql);
    auto cb = session_large.Check(sql);
    ASSERT_TRUE(ca.ok());
    ASSERT_TRUE(cb.ok());
    EXPECT_EQ(ca->covered, cb->covered);
    if (ca->covered) {
      EXPECT_EQ(ca->plan.total_access_bound, cb->plan.total_access_bound)
          << "M must be decided by Q and A, never |D|";
    }
  }
  delete fresh_catalog;
  delete small_aligned;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundScaleIndependence,
                         ::testing::Range<uint64_t>(0, 10));

// ---------------------------------------------------------------------------
// P5. Vectorized/scalar differential: the vectorized fetch chain
// (columnar T, batched probes, compiled step programs) is bit-identical to
// the row-at-a-time reference — same rows in the same order, same weights,
// same η and probe counters — on randomized chains with duplicate
// Y-projections, with and without a fetch budget.
// ---------------------------------------------------------------------------

void ExpectFragmentsIdentical(const BoundedExecutor::Fragment& s,
                              const BoundedExecutor::Fragment& v) {
  ASSERT_EQ(s.rows.size(), v.rows.size());
  for (size_t r = 0; r < s.rows.size(); ++r) {
    EXPECT_EQ(CompareValueVec(s.rows[r], v.rows[r]), 0)
        << "row " << r << ": " << RowToString(s.rows[r]) << " vs "
        << RowToString(v.rows[r]);
  }
  EXPECT_EQ(s.weights, v.weights);
  EXPECT_DOUBLE_EQ(s.stats.eta, v.stats.eta);
  EXPECT_EQ(s.stats.tuples_fetched, v.stats.tuples_fetched);
  EXPECT_EQ(s.stats.keys_probed, v.stats.keys_probed);
  EXPECT_EQ(s.stats.timed_out, v.stats.timed_out);
}

/// The fetch chain on the reference path or on the vectorized one.
Result<BoundedExecutor::Fragment> FragmentOn(bool reference,
                                             const AsCatalog& catalog,
                                             const BoundQuery& query,
                                             const BoundedPlan& plan,
                                             const BoundedExecOptions& opts) {
  return reference ? ReferenceFragment(catalog, query, plan, opts)
                   : BoundedExecutor(&catalog).ExecuteFragment(query, plan,
                                                               opts);
}

class VectorizedScalarDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(VectorizedScalarDifferential, PathsAgreeBitForBit) {
  Rng rng(GetParam() * 52361 + 3);
  RandomDb env = BuildRandomDb(&rng);
  BoundedExecutor executor(env.catalog.get());
  const uint64_t budgets[] = {0, 1, 3, 17};

  auto check_query = [&](const std::string& sql) {
    SCOPED_TRACE(sql);
    auto coverage = env.session->Check(sql);
    ASSERT_TRUE(coverage.ok()) << coverage.status().ToString();
    if (!coverage->covered) return;
    auto bound = env.db->Bind(sql);
    ASSERT_TRUE(bound.ok());
    for (uint64_t budget : budgets) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      BoundedExecOptions opts;
      opts.fetch_budget = budget;

      auto frag_s =
          ReferenceFragment(*env.catalog, *bound, coverage->plan, opts);
      auto frag_v = executor.ExecuteFragment(*bound, coverage->plan, opts);
      ASSERT_TRUE(frag_s.ok()) << frag_s.status().ToString();
      ASSERT_TRUE(frag_v.ok()) << frag_v.status().ToString();
      ExpectFragmentsIdentical(*frag_s, *frag_v);

      auto res_s =
          ExecuteReference(*env.catalog, *bound, coverage->plan, opts);
      auto res_v = executor.Execute(*bound, coverage->plan, opts);
      ASSERT_TRUE(res_s.ok());
      ASSERT_TRUE(res_v.ok());
      ASSERT_EQ(res_s->rows.size(), res_v->rows.size());
      for (size_t r = 0; r < res_s->rows.size(); ++r) {
        EXPECT_EQ(CompareValueVec(res_s->rows[r], res_v->rows[r]), 0);
      }
    }
  };

  for (int q = 0; q < 6; ++q) {
    bool aggregate = false;
    check_query(BuildRandomQuery(&rng, env, &aggregate));
  }
  // Weighted-dedup / DISTINCT-aggregate exactness: duplicate Y-projections
  // make DISTINCT counts diverge from weighted COUNTs unless the
  // vectorized dedup keeps multiplicities exact.
  for (int c = 0; c < 3; ++c) {
    std::string k = std::to_string(rng.Uniform(0, 4));
    check_query("SELECT a.c1, count(*) AS n, count(DISTINCT a.c2) AS d, "
                "sum(a.c2) AS s FROM t0 a WHERE a.c0 = " + k +
                " GROUP BY a.c1");
    check_query("SELECT DISTINCT a.c1, a.c2 FROM t0 a WHERE a.c0 = " + k);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorizedScalarDifferential,
                         ::testing::Range<uint64_t>(0, 15));

// ---------------------------------------------------------------------------
// P6. String-heavy differential: random chains whose key columns and
// Y-projections are strings — high- and low-cardinality pools, duplicate
// string Y-projections, empty strings in the data — so the encoded
// (dictionary) vectorized path is fuzzed exactly where it engages:
// code-column gathers, canonicalized probe constants, encoded predicate
// kernels. Checked against the scalar reference bit-for-bit and against
// the conventional engines for multiset agreement.
// ---------------------------------------------------------------------------

/// Low-cardinality pool: lots of duplicate keys and Y-values (includes
/// the empty string, which must survive interning round-trips).
std::string LowCardString(Rng* rng) {
  static const char* kPool[] = {"s0", "s1", "s2", "s3", ""};
  return kPool[rng->Uniform(0, 4)];
}

/// High-cardinality pool: long enough to defeat SSO (the expensive case
/// for inline strings).
std::string HighCardString(Rng* rng) {
  return "u" + std::to_string(rng->Uniform(0, 19)) + "_padpadpadpadpad";
}

/// Two tables with string key columns: t0(c0 lo, c1 hi, c2 int, c3 lo),
/// t1(c0 lo, c1 hi, c2 int). Constraints mined from the data like the
/// integer RandomDb's.
RandomDb BuildRandomStringDb(Rng* rng) {
  RandomDb out;
  out.db = std::make_unique<Database>();
  auto build = [&](const std::string& name, bool four_cols) {
    Schema schema;
    schema.AddColumn({"c0", TypeId::kString});
    schema.AddColumn({"c1", TypeId::kString});
    schema.AddColumn({"c2", TypeId::kInt64});
    if (four_cols) schema.AddColumn({"c3", TypeId::kString});
    auto info = out.db->CreateTable(name, schema);
    EXPECT_TRUE(info.ok());
    size_t rows = static_cast<size_t>(rng->Uniform(20, 50));
    std::vector<Row> batch;
    for (size_t r = 0; r < rows; ++r) {
      Row row;
      row.push_back(rng->Chance(0.1) ? Value::Null()
                                     : Value::String(LowCardString(rng)));
      row.push_back(rng->Chance(0.1) ? Value::Null()
                                     : Value::String(HighCardString(rng)));
      row.push_back(I(rng->Uniform(0, 4)));
      if (four_cols) row.push_back(Value::String(LowCardString(rng)));
      batch.push_back(std::move(row));
    }
    // The batch path is the dictionary's natural grain — use it here so
    // the fuzz also exercises InsertBatch.
    EXPECT_TRUE(out.db->InsertBatch(name, std::move(batch)).ok());
    out.tables.push_back(name);
    out.arity.push_back(four_cols ? 4 : 3);
  };
  build("t0", true);
  build("t1", false);

  out.catalog = std::make_unique<AsCatalog>(out.db.get());
  for (size_t t = 0; t < out.tables.size(); ++t) {
    TableInfo* info = *out.db->catalog()->GetTable(out.tables[t]);
    int num_constraints = static_cast<int>(rng->Uniform(2, 4));
    for (int k = 0; k < num_constraints; ++k) {
      CandidatePattern pattern;
      pattern.table = out.tables[t];
      size_t x = static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(out.arity[t]) - 1));
      pattern.x_attrs = {"c" + std::to_string(x)};
      if (rng->Chance(0.4)) {
        size_t x2 = static_cast<size_t>(
            rng->Uniform(0, static_cast<int64_t>(out.arity[t]) - 1));
        if (x2 != x) pattern.x_attrs.push_back("c" + std::to_string(x2));
      }
      for (size_t c = 0; c < out.arity[t]; ++c) {
        std::string name = "c" + std::to_string(c);
        bool in_x = false;
        for (const auto& xa : pattern.x_attrs) in_x |= (xa == name);
        if (!in_x && rng->Chance(0.7)) pattern.y_attrs.push_back(name);
      }
      if (pattern.y_attrs.empty()) continue;
      auto profile = ProfileCandidate(*info->heap(), pattern);
      if (!profile.ok() || profile->num_keys == 0) continue;
      AccessConstraint constraint;
      constraint.name = "rs" + std::to_string(t) + "_" + std::to_string(k);
      constraint.table = pattern.table;
      constraint.x_attrs = pattern.x_attrs;
      constraint.y_attrs = pattern.y_attrs;
      constraint.limit_n = profile->observed_n;
      Status st = out.catalog->Register(constraint);
      (void)st;
    }
  }
  out.session = std::make_unique<BeasSession>(out.db.get(), out.catalog.get());
  return out;
}

/// Random query over the string tables: string-constant fetch keys,
/// string joins, string IN-lists (with never-interned members), string
/// range filters — the predicate shapes the encoded kernels special-case.
std::string BuildRandomStringQuery(Rng* rng, bool* aggregate) {
  bool two_atoms = rng->Chance(0.7);
  *aggregate = rng->Chance(0.3);
  std::string from = "t0 a";
  if (two_atoms) from += ", t1 b";

  std::vector<std::string> conjuncts;
  conjuncts.push_back("a.c0 = 's" + std::to_string(rng->Uniform(0, 3)) + "'");
  if (two_atoms) {
    // String-keyed joins dominate; occasionally join on the int column.
    switch (rng->Uniform(0, 3)) {
      case 0: conjuncts.push_back("a.c0 = b.c0"); break;
      case 1: conjuncts.push_back("a.c1 = b.c1"); break;
      case 2: conjuncts.push_back("a.c3 = b.c0"); break;
      default: conjuncts.push_back("a.c2 = b.c2"); break;
    }
    if (rng->Chance(0.5)) {
      // IN-list with one member that was never interned anywhere.
      conjuncts.push_back("b.c1 IN ('u" + std::to_string(rng->Uniform(0, 19)) +
                          "_padpadpadpadpad', 'u" +
                          std::to_string(rng->Uniform(0, 19)) +
                          "_padpadpadpadpad', 'never_interned')");
    }
  }
  if (rng->Chance(0.4)) {
    conjuncts.push_back("a.c3 <> 's" + std::to_string(rng->Uniform(0, 4)) +
                        "'");
  }
  if (rng->Chance(0.4)) {
    // Byte-order range over codes that are not order-preserving.
    conjuncts.push_back("a.c1 <= 'u" + std::to_string(rng->Uniform(5, 19)) +
                        "_padpadpadpadpad'");
  }
  if (rng->Chance(0.2)) {
    conjuncts.push_back("(a.c3 = 's0' OR a.c3 = 's2')");
  }

  std::string where;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    where += (i == 0 ? " WHERE " : " AND ") + conjuncts[i];
  }

  std::string select;
  if (*aggregate) {
    select = "SELECT a.c3, count(*) AS n, count(DISTINCT a.c1) AS d FROM " +
             from + where + " GROUP BY a.c3";
  } else {
    select = "SELECT ";
    if (rng->Chance(0.3)) select += "DISTINCT ";
    select += "a.c1, a.c3";
    if (two_atoms) select += ", b.c1";
    select += " FROM " + from + where;
  }
  return select;
}

class StringChainDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StringChainDifferential, EncodedAndScalarPathsAgreeBitForBit) {
  Rng rng(GetParam() * 60257 + 11);
  RandomDb env = BuildRandomStringDb(&rng);
  BoundedExecutor executor(env.catalog.get());
  const uint64_t budgets[] = {0, 1, 3, 17};

  for (int q = 0; q < 8; ++q) {
    bool aggregate = false;
    std::string sql = BuildRandomStringQuery(&rng, &aggregate);
    SCOPED_TRACE(sql);

    // Engine parity first (BEAS vs the conventional engine), so the
    // dictionary path is also checked against an independent evaluator.
    BeasSession::ExecutionDecision decision;
    auto beas = env.session->Execute(sql, &decision);
    ASSERT_TRUE(beas.ok()) << beas.status().ToString();
    auto pg = env.db->Query(sql, EngineProfile::PostgresLike());
    ASSERT_TRUE(pg.ok()) << pg.status().ToString();
    EXPECT_TRUE(RowMultisetsEqual(beas->rows, pg->rows))
        << beas->rows.size() << " vs " << pg->rows.size();

    auto coverage = env.session->Check(sql);
    ASSERT_TRUE(coverage.ok());
    if (!coverage->covered) continue;
    auto bound = env.db->Bind(sql);
    ASSERT_TRUE(bound.ok());
    for (uint64_t budget : budgets) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      BoundedExecOptions opts;
      opts.fetch_budget = budget;
      auto frag_s =
          ReferenceFragment(*env.catalog, *bound, coverage->plan, opts);
      auto frag_v = executor.ExecuteFragment(*bound, coverage->plan, opts);
      ASSERT_TRUE(frag_s.ok()) << frag_s.status().ToString();
      ASSERT_TRUE(frag_v.ok()) << frag_v.status().ToString();
      ExpectFragmentsIdentical(*frag_s, *frag_v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StringChainDifferential,
                         ::testing::Range<uint64_t>(0, 15));

// ---------------------------------------------------------------------------
// P7. Shard-count differential: hash-partitioned storage (BEAS_SHARDS)
// never changes answers. The same seed is materialized at shard counts
// {1, 3, 8}; every query's fetch-chain fragment — reference and vectorized,
// with and without a probe pool, exact and budget-capped — must be
// bit-identical (rows, order, weights, η, probe counters) to the
// single-shard reference path. Integer and string (dictionary-encoded)
// databases are both swept.
// ---------------------------------------------------------------------------

using testing_util::ShardOverrideGuard;

class ShardCountDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardCountDifferential, ShardingIsInvisibleBitForBit) {
  const size_t kShardCounts[] = {1, 3, 8};
  const uint64_t budgets[] = {0, 2, 17};
  bool strings = GetParam() % 2 == 1;  // alternate int / dictionary DBs

  // Materialize the same database (same seed => same rows in the same
  // insertion order) at each shard count.
  std::vector<RandomDb> envs;
  for (size_t shards : kShardCounts) {
    ShardOverrideGuard guard(shards);
    Rng rng(GetParam() * 88951 + 29);
    envs.push_back(strings ? BuildRandomStringDb(&rng)
                           : BuildRandomDb(&rng));
    ASSERT_EQ((*envs.back().db->catalog()->GetTable("t0"))
                  ->heap()
                  ->num_shards(),
              shards);
  }
  TaskPool pool(3);

  Rng qrng(GetParam() * 52379 + 17);
  for (int q = 0; q < 6; ++q) {
    bool aggregate = false;
    std::string sql = strings ? BuildRandomStringQuery(&qrng, &aggregate)
                              : BuildRandomQuery(&qrng, envs[0], &aggregate);
    SCOPED_TRACE(sql);

    auto ref_coverage = envs[0].session->Check(sql);
    ASSERT_TRUE(ref_coverage.ok());
    if (!ref_coverage->covered) continue;
    auto ref_bound = envs[0].db->Bind(sql);
    ASSERT_TRUE(ref_bound.ok());

    for (uint64_t budget : budgets) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      BoundedExecOptions ref_opts;
      ref_opts.fetch_budget = budget;
      auto reference = ReferenceFragment(
          *envs[0].catalog, *ref_bound, ref_coverage->plan, ref_opts);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();

      for (size_t e = 0; e < envs.size(); ++e) {
        SCOPED_TRACE("shards=" + std::to_string(kShardCounts[e]));
        auto coverage = envs[e].session->Check(sql);
        ASSERT_TRUE(coverage.ok());
        // Coverage and deduced bounds are properties of (Q, A) — never of
        // the partitioning.
        ASSERT_TRUE(coverage->covered);
        EXPECT_EQ(coverage->plan.total_access_bound,
                  ref_coverage->plan.total_access_bound);
        auto bound = envs[e].db->Bind(sql);
        ASSERT_TRUE(bound.ok());

        for (bool reference_path : {true, false}) {
          for (TaskPool* p : {static_cast<TaskPool*>(nullptr), &pool}) {
            BoundedExecOptions opts;
            opts.fetch_budget = budget;
            opts.probe_pool = p;
            auto frag = FragmentOn(reference_path, *envs[e].catalog, *bound,
                                   coverage->plan, opts);
            ASSERT_TRUE(frag.ok()) << frag.status().ToString();
            ExpectFragmentsIdentical(*reference, *frag);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardCountDifferential,
                         ::testing::Range<uint64_t>(0, 10));

// ---------------------------------------------------------------------------
// P8. Columnar-tail differential: the columnar relational tail (GROUP BY /
// DISTINCT / ORDER BY / LIMIT straight over the fetch chain's TupleBatch)
// is bit-identical to the scalar row-at-a-time tail — same rows in the
// same output order — across int and string (dictionary-encoded)
// databases, fetch budgets, BEAS_SHARDS ∈ {1, 3, 8} and pool on/off (the
// chunk-parallel fold).
// ---------------------------------------------------------------------------

/// Tail-shaped random queries: grouped aggregation, DISTINCT and plain
/// projections, each with random ORDER BY / LIMIT decoration.
std::string BuildTailShapedQuery(Rng* rng, bool strings) {
  std::string key = strings ? "'s" + std::to_string(rng->Uniform(0, 3)) + "'"
                            : std::to_string(rng->Uniform(0, 4));
  std::string where = " WHERE a.c0 = " + key;
  if (rng->Chance(0.3)) {
    where += " AND a.c2 <= " + std::to_string(rng->Uniform(1, 4));
  }
  std::string order;
  switch (rng->Uniform(0, 3)) {
    case 0: order = " ORDER BY 1"; break;
    case 1: order = " ORDER BY 2, 1"; break;
    case 2: order = " ORDER BY 1 DESC"; break;
    default: break;  // no ORDER BY: first-appearance order is the contract
  }
  std::string limit =
      rng->Chance(0.4) ? " LIMIT " + std::to_string(rng->Uniform(1, 7)) : "";
  std::string g = strings ? "a.c3" : "a.c1";
  std::string v = strings ? "a.c1" : "a.c2";
  switch (rng->Uniform(0, 3)) {
    case 0:
      return "SELECT " + g + ", count(*) AS n, count(DISTINCT " + v +
             ") AS d FROM t0 a" + where + " GROUP BY " + g + order + limit;
    case 1:
      return "SELECT " + g + ", min(" + v + ") AS lo, max(" + v +
             ") AS hi FROM t0 a" + where + " GROUP BY " + g + order + limit;
    case 2:
      return "SELECT DISTINCT " + g + ", " + v + " FROM t0 a" + where + order +
             limit;
    default:
      return "SELECT " + g + ", " + v + " FROM t0 a" + where + order + limit;
  }
}

class ColumnarTailDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarTailDifferential, TailsAgreeBitForBitAcrossShards) {
  const size_t kShardCounts[] = {1, 3, 8};
  const uint64_t budgets[] = {0, 3, 17};
  bool strings = GetParam() % 2 == 1;
  TaskPool pool(3);

  for (size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardOverrideGuard guard(shards);
    Rng rng(GetParam() * 74093 + 41);
    RandomDb env = strings ? BuildRandomStringDb(&rng) : BuildRandomDb(&rng);
    BoundedExecutor executor(env.catalog.get());

    Rng qrng(GetParam() * 150151 + 9);
    for (int q = 0; q < 6; ++q) {
      std::string sql = BuildTailShapedQuery(&qrng, strings);
      SCOPED_TRACE(sql);
      auto coverage = env.session->Check(sql);
      ASSERT_TRUE(coverage.ok()) << coverage.status().ToString();
      if (!coverage->covered) continue;
      auto bound = env.db->Bind(sql);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();

      for (uint64_t budget : budgets) {
        SCOPED_TRACE("budget=" + std::to_string(budget));
        BoundedExecOptions ref_opts;
        ref_opts.fetch_budget = budget;
        auto reference =
            ExecuteReference(*env.catalog, *bound, coverage->plan, ref_opts);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();

        for (TaskPool* p : {static_cast<TaskPool*>(nullptr), &pool}) {
          BoundedExecOptions opts;
          opts.fetch_budget = budget;
          opts.probe_pool = p;
          auto columnar = executor.Execute(*bound, coverage->plan, opts);
          ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
          ASSERT_EQ(reference->rows.size(), columnar->rows.size());
          for (size_t r = 0; r < reference->rows.size(); ++r) {
            EXPECT_EQ(CompareValueVec(reference->rows[r], columnar->rows[r]),
                      0)
                << "row " << r << ": " << RowToString(reference->rows[r])
                << " vs " << RowToString(columnar->rows[r]);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarTailDifferential,
                         ::testing::Range<uint64_t>(0, 15));

// ---------------------------------------------------------------------------
// P9. Deadline/cancel differential: an expired ExecControl behaves exactly
// like an exhausted fetch budget. A pre-set cancel token (and an
// already-expired deadline) yields the same deterministic partial answer —
// bit-identical rows, order, weights, η and probe counters — across
// BEAS_SHARDS {1, 3, 8}, reference and vectorized paths, pool on/off, and
// fetch budgets. With a fail-point delay holding each fetch step open, a
// mid-chain deadline produces η monotone in the deadline, and once the
// fault is disarmed the same executor serves exact answers again.
// ---------------------------------------------------------------------------

/// Arms an in-process fault spec and guarantees disarming.
struct PropertyFailGuard {
  explicit PropertyFailGuard(const char* spec) { fail::ArmForTesting(spec); }
  ~PropertyFailGuard() { fail::ArmForTesting(nullptr); }
};

class DeadlineCancelDifferential : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DeadlineCancelDifferential, ExpiryIsBudgetExhaustionBitForBit) {
  const size_t kShardCounts[] = {1, 3, 8};
  const uint64_t budgets[] = {0, 2, 17};

  std::vector<RandomDb> envs;
  for (size_t shards : kShardCounts) {
    ShardOverrideGuard guard(shards);
    Rng rng(GetParam() * 63809 + 41);
    envs.push_back(BuildRandomDb(&rng));
    // The random constraint draw rarely covers a multi-step chain, and a
    // vacuously-covered query (no probe keys) would make this property
    // trivial. Guarantee the chains below: profile and register
    // c0 -> (c1, c2) on t0 and c0 -> c1 on t1 (N from the data, so the
    // constraints conform — and the bound is partitioning-independent).
    for (const auto& want :
         {std::pair<std::string, std::vector<std::string>>{"t0", {"c1", "c2"}},
          std::pair<std::string, std::vector<std::string>>{"t1", {"c1"}}}) {
      TableInfo* info = *envs.back().db->catalog()->GetTable(want.first);
      CandidatePattern pattern;
      pattern.table = want.first;
      pattern.x_attrs = {"c0"};
      pattern.y_attrs = want.second;
      auto profile = ProfileCandidate(*info->heap(), pattern);
      ASSERT_TRUE(profile.ok()) << profile.status().ToString();
      AccessConstraint constraint;
      constraint.name = "p9_" + want.first;
      constraint.table = want.first;
      constraint.x_attrs = pattern.x_attrs;
      constraint.y_attrs = pattern.y_attrs;
      constraint.limit_n = profile->observed_n;
      Status registered = envs.back().catalog->Register(constraint);
      // kAlreadyExists = the random draw registered this exact pattern
      // already, which covers the chains just as well.
      ASSERT_TRUE(registered.ok() ||
                  registered.code() == StatusCode::kAlreadyExists)
          << registered.ToString();
    }
  }
  TaskPool pool(3);
  std::atomic<bool> cancelled{true};

  Rng qrng(GetParam() * 24107 + 7);
  const std::string k = std::to_string(qrng.Uniform(0, 4));
  // The first two chains are covered by the guaranteed constraints (the
  // two-step join first: the mid-chain deadline block below uses the first
  // covered query); the rest fuzz whatever the random draw covers.
  std::vector<std::string> queries = {
      "SELECT a.c1, b.c1 FROM t0 a, t1 b WHERE a.c0 = " + k +
          " AND a.c1 = b.c0",
      "SELECT a.c1, a.c2 FROM t0 a WHERE a.c0 = " + k,
  };
  for (int q = 0; q < 2; ++q) {
    bool aggregate = false;
    queries.push_back(BuildRandomQuery(&qrng, envs[0], &aggregate));
  }
  bool ran_midchain = false;
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string& sql = queries[q];
    SCOPED_TRACE(sql);

    auto ref_coverage = envs[0].session->Check(sql);
    ASSERT_TRUE(ref_coverage.ok()) << ref_coverage.status().ToString();
    if (q < 2) {
      ASSERT_TRUE(ref_coverage->covered)
          << "guaranteed constraints must cover the deterministic chains";
    }
    if (!ref_coverage->covered) continue;
    auto ref_bound = envs[0].db->Bind(sql);
    ASSERT_TRUE(ref_bound.ok());

    // Exact reference (no control, no budget): the ceiling every partial
    // answer's η sits under, and the answer the executor must return again
    // once the pressure is gone.
    auto exact =
        ReferenceFragment(*envs[0].catalog, *ref_bound, ref_coverage->plan);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    ASSERT_FALSE(exact->stats.timed_out);

    for (uint64_t budget : budgets) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      // Single-shard reference path under a pre-set cancel token.
      BoundedExecOptions ref_opts;
      ref_opts.fetch_budget = budget;
      ref_opts.control.cancel = &cancelled;
      auto reference = ReferenceFragment(
          *envs[0].catalog, *ref_bound, ref_coverage->plan, ref_opts);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      // The token trips the first expiry poll — but a chain that never
      // reaches a probe key (unsatisfiable plans) has nothing to shed and
      // honestly stays !timed_out.
      const bool expect_timeout = exact->stats.keys_probed > 0;
      if (q < 2) {
        EXPECT_TRUE(expect_timeout)
            << "the deterministic chains must reach probe keys";
      }
      EXPECT_EQ(reference->stats.timed_out, expect_timeout);
      EXPECT_LE(reference->stats.eta, exact->stats.eta);

      for (size_t e = 0; e < envs.size(); ++e) {
        SCOPED_TRACE("shards=" + std::to_string(kShardCounts[e]));
        auto coverage = envs[e].session->Check(sql);
        ASSERT_TRUE(coverage.ok());
        ASSERT_TRUE(coverage->covered);
        auto bound = envs[e].db->Bind(sql);
        ASSERT_TRUE(bound.ok());

        for (bool reference_path : {true, false}) {
          for (TaskPool* p : {static_cast<TaskPool*>(nullptr), &pool}) {
            SCOPED_TRACE(std::string(reference_path ? "reference"
                                                    : "vectorized") +
                         (p != nullptr ? "+pool" : ""));
            BoundedExecOptions opts;
            opts.fetch_budget = budget;
            opts.probe_pool = p;
            opts.control.cancel = &cancelled;
            auto frag = FragmentOn(reference_path, *envs[e].catalog, *bound,
                                   coverage->plan, opts);
            ASSERT_TRUE(frag.ok()) << frag.status().ToString();
            ExpectFragmentsIdentical(*reference, *frag);

            // An already-expired deadline is indistinguishable from the
            // cancel token: both trip the very first expiry poll.
            BoundedExecOptions dead_opts = opts;
            dead_opts.control = ExecControl::After(std::chrono::milliseconds(0));
            auto dead = FragmentOn(reference_path, *envs[e].catalog, *bound,
                                   coverage->plan, dead_opts);
            ASSERT_TRUE(dead.ok()) << dead.status().ToString();
            ExpectFragmentsIdentical(*reference, *dead);
          }
        }
      }
    }

    // Mid-chain deadlines, shards {1, 3} (first covered query only — each
    // run sleeps 60ms per step): the exec_step fail point holds every
    // fetch step open, so a 1ms deadline expires before the first step
    // serves, a generous deadline never expires, and a 90ms one lands in
    // between on multi-step chains. η must be monotone in the deadline on
    // both paths, and the undisturbed run must still match the exact
    // reference bit for bit.
    if (!ran_midchain) {
      ran_midchain = true;
      PropertyFailGuard slow("exec_step=sleep(60)@*");
      const int64_t deadlines_ms[] = {1, 90, 100000};
      for (size_t e = 0; e < 2; ++e) {
        SCOPED_TRACE("shards=" + std::to_string(kShardCounts[e]));
        auto coverage = envs[e].session->Check(sql);
        ASSERT_TRUE(coverage.ok());
        ASSERT_TRUE(coverage->covered);
        auto bound = envs[e].db->Bind(sql);
        ASSERT_TRUE(bound.ok());
        for (bool reference_path : {true, false}) {
          SCOPED_TRACE(reference_path ? "reference" : "vectorized");
          double prev_eta = -1.0;
          for (int64_t deadline_ms : deadlines_ms) {
            BoundedExecOptions opts;
            opts.control =
                ExecControl::After(std::chrono::milliseconds(deadline_ms));
            auto frag = FragmentOn(reference_path, *envs[e].catalog, *bound,
                                   coverage->plan, opts);
            ASSERT_TRUE(frag.ok()) << frag.status().ToString();
            EXPECT_GE(frag->stats.eta, prev_eta)
                << "η must be monotone in the deadline (deadline_ms=" +
                       std::to_string(deadline_ms) + ")";
            prev_eta = frag->stats.eta;
            if (deadline_ms == 100000) {
              EXPECT_FALSE(frag->stats.timed_out);
              ExpectFragmentsIdentical(*exact, *frag);
            }
          }
        }
      }
    }

    // Fault disarmed: the executor is unharmed and exact again.
    auto after = FragmentOn(false, *envs[0].catalog, *ref_bound,
                            ref_coverage->plan, {});
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectFragmentsIdentical(*exact, *after);
  }
  EXPECT_TRUE(ran_midchain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeadlineCancelDifferential,
                         ::testing::Range<uint64_t>(0, 4));

// ---------------------------------------------------------------------------
// P10. Service-level oracle. Random int and string databases are loaded
// into a BeasService at shard counts {1, 3}; every random query goes
// through BeasService::Query in two spellings (original, and conjuncts
// reversed with every column-vs-literal comparison written literal-first),
// twice each, so a miss and a plan- or result-cache hit are both served.
// Half the seeds use only the randomly drawn access schema (mostly
// partially bounded or conventional answers); the other half add
// constraints that cover every query shape (bounded answers).
// The conventional engine over the service's own database is the oracle:
//   - an exact answer equals the oracle's as a bag (Chirkova &
//     Genesereth's bag equivalence);
//   - under a fetch budget (kAuto with QueryOptions::fetch_budget, and
//     kApproximate), 0 <= η <= 1, η = 1 implies bag equality, and a
//     non-aggregate answer (none of these carry a LIMIT) is a sub-bag of
//     the oracle's.
// Unlike P5–P9 this sees bugs the two executor paths would share: in the
// binder, the canonicalizer, the plan generator and the caches.
// ---------------------------------------------------------------------------

/// A "SELECT … WHERE c1 AND … AND cn [GROUP BY …]" query taken apart.
struct WhereParts {
  std::string head;  ///< up to, excluding, " WHERE "
  std::vector<std::string> conjuncts;
  std::string tail;  ///< from " GROUP BY " on, or empty
};

WhereParts SplitWhere(const std::string& sql) {
  WhereParts parts;
  size_t where = sql.find(" WHERE ");
  size_t group = sql.find(" GROUP BY ");
  parts.head = sql.substr(0, where);
  std::string body = sql.substr(where + 7, group == std::string::npos
                                               ? std::string::npos
                                               : group - where - 7);
  if (group != std::string::npos) parts.tail = sql.substr(group);
  size_t begin = 0;
  for (size_t at; (at = body.find(" AND ", begin)) != std::string::npos;
       begin = at + 5) {
    parts.conjuncts.push_back(body.substr(begin, at - begin));
  }
  parts.conjuncts.push_back(body.substr(begin));
  return parts;
}

/// "col op literal" -> "literal op' col"; anything else is returned as is.
std::string LiteralFirst(const std::string& conjunct) {
  static const std::vector<std::pair<std::string, std::string>> kMirror = {
      {"=", "="}, {"<>", "<>"}, {"<=", ">="}, {">=", "<="}, {"<", ">"},
      {">", "<"}};
  size_t a = conjunct.find(' ');
  size_t b = conjunct.find(' ', a + 1);
  if (a == std::string::npos || b == std::string::npos ||
      conjunct.find(' ', b + 1) != std::string::npos) {
    return conjunct;
  }
  std::string lhs = conjunct.substr(0, a);
  std::string op = conjunct.substr(a + 1, b - a - 1);
  std::string rhs = conjunct.substr(b + 1);
  bool literal = rhs[0] == '\'' || rhs[0] == '-' ||
                 std::isdigit(static_cast<unsigned char>(rhs[0]));
  if (!literal) return conjunct;
  for (const auto& [from, to] : kMirror) {
    if (op == from) return rhs + " " + to + " " + lhs;
  }
  return conjunct;
}

/// The second spelling of a random query: the same bag of answers.
std::string Respell(const std::string& sql) {
  WhereParts parts = SplitWhere(sql);
  std::string out = parts.head;
  for (size_t i = parts.conjuncts.size(); i-- > 0;) {
    out += (i + 1 == parts.conjuncts.size() ? " WHERE " : " AND ") +
           LiteralFirst(parts.conjuncts[i]);
  }
  return out + parts.tail;
}

/// Multiset inclusion: every row of `sub` occurs in `full` at least as
/// often.
bool IsSubBag(std::vector<Row> sub, std::vector<Row> full) {
  auto less = [](const Row& a, const Row& b) {
    return CompareValueVec(a, b) < 0;
  };
  std::sort(sub.begin(), sub.end(), less);
  std::sort(full.begin(), full.end(), less);
  return std::includes(full.begin(), full.end(), sub.begin(), sub.end(),
                       less);
}

/// A budgeted answer is honest: η is a coverage fraction, full coverage
/// means the exact answer, and a partial SPC answer is a sub-bag of it.
void ExpectHonestPartial(const QueryResponse& resp, const QueryResult& oracle,
                         bool aggregate) {
  EXPECT_GE(resp.eta, 0.0);
  EXPECT_LE(resp.eta, 1.0);
  if (resp.eta == 1.0) {
    EXPECT_TRUE(RowMultisetsEqual(resp.result.rows, oracle.rows))
        << resp.result.rows.size() << " vs " << oracle.rows.size();
  }
  if (!aggregate) {
    EXPECT_TRUE(IsSubBag(resp.result.rows, oracle.rows))
        << "partial answer of " << resp.result.rows.size()
        << " rows is not a sub-bag of the exact " << oracle.rows.size();
  }
}

class ServiceOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServiceOracle, AnswersEqualTheConventionalEngineAsBags) {
  const bool strings = GetParam() % 2 == 1;
  const bool covering = GetParam() % 4 >= 2;
  for (size_t shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardOverrideGuard guard(shards);
    Rng rng(GetParam() * 40009 + 19);
    RandomDb env = strings ? BuildRandomStringDb(&rng) : BuildRandomDb(&rng);

    // The same tables, rows (in insertion order) and access constraints,
    // loaded through the service's own write path.
    ServiceOptions options;
    options.num_workers = 2;
    BeasService svc(options);
    for (const std::string& name : env.tables) {
      const TableHeap& heap = *(*env.db->catalog()->GetTable(name))->heap();
      ASSERT_TRUE(svc.CreateTable(name, heap.schema()).ok());
      std::vector<Row> rows;
      for (auto it = heap.Begin(); it.Valid(); it.Next()) {
        Row row = it.row();
        for (Value& v : row) {
          if (v.dict() != nullptr) v = Value::String(v.AsString());
        }
        rows.push_back(std::move(row));
      }
      ASSERT_TRUE(svc.InsertBatch(name, std::move(rows)).ok());
    }
    for (const AccessConstraint& c : env.catalog->schema().constraints()) {
      ASSERT_TRUE(svc.RegisterConstraint(c).ok()) << c.name;
    }
    if (covering) {
      // The random draw covers few queries. These constraints, bounded by
      // the data, cover every shape the query builders produce: t0's
      // constant key, and every column of t1 a join can probe.
      std::vector<std::pair<std::string, std::string>> keys = {{"t0", "c0"}};
      for (const char* col : {"c0", "c1", "c2"}) keys.emplace_back("t1", col);
      for (const auto& [table, key] : keys) {
        TableInfo* info = *svc.db()->catalog()->GetTable(table);
        CandidatePattern pattern;
        pattern.table = table;
        pattern.x_attrs = {key};
        for (const Column& c : info->heap()->schema().columns()) {
          if (c.name != key) pattern.y_attrs.push_back(c.name);
        }
        auto profile = ProfileCandidate(*info->heap(), pattern);
        ASSERT_TRUE(profile.ok()) << profile.status().ToString();
        Status st = svc.RegisterConstraint(
            {"cover_" + table + "_" + key, table, pattern.x_attrs,
             pattern.y_attrs, profile->observed_n});
        ASSERT_TRUE(st.ok() || st.code() == StatusCode::kAlreadyExists)
            << st.ToString();
      }
    }

    Rng qrng(GetParam() * 7477 + 1);
    for (int q = 0; q < 8; ++q) {
      bool aggregate = false;
      std::string sql = strings ? BuildRandomStringQuery(&qrng, &aggregate)
                                : BuildRandomQuery(&qrng, env, &aggregate);
      auto oracle = svc.db()->Query(sql);
      ASSERT_TRUE(oracle.ok()) << sql << ": " << oracle.status().ToString();

      for (const std::string& spelling : {sql, Respell(sql)}) {
        SCOPED_TRACE(spelling);
        for (int round = 0; round < 2; ++round) {
          auto resp = svc.Query({spelling});
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          EXPECT_TRUE(RowMultisetsEqual(resp->result.rows, oracle->rows))
              << "round " << round << ": " << resp->result.rows.size()
              << " vs " << oracle->rows.size();
          EXPECT_EQ(resp->eta, 1.0);
          if (round == 1 && resp->cacheable) {
            EXPECT_TRUE(resp->cache_hit || resp->result_cache_hit)
                << "a repeated cacheable request must hit a cache";
          }
        }
        for (uint64_t budget : {1, 5, 17}) {
          SCOPED_TRACE("budget=" + std::to_string(budget));
          QueryOptions budgeted;
          budgeted.fetch_budget = budget;
          auto partial = svc.Query({spelling, QueryMode::kAuto, budgeted});
          ASSERT_TRUE(partial.ok()) << partial.status().ToString();
          ExpectHonestPartial(*partial, *oracle, aggregate);

          QueryRequest approx{spelling, QueryMode::kApproximate};
          approx.approx_budget = budget;
          auto approximate = svc.Query(approx);
          if (!partial->covered) {
            EXPECT_EQ(approximate.status().code(), StatusCode::kNotCovered);
            continue;
          }
          ASSERT_TRUE(approximate.ok()) << approximate.status().ToString();
          ExpectHonestPartial(*approximate, *oracle, aggregate);
          EXPECT_EQ(approximate->approx_exact, approximate->eta >= 1.0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceOracle,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace beas
