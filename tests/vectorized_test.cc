// Unit tests for the vectorized fetch-chain building blocks: columnar
// TupleBatch (hash dedup, filter, grouper), slot-addressed ExprProgram
// (compile / literal rebinding / batch evaluation vs the tree evaluator),
// batched AcIndex probes, and compiled step programs.

#include <gtest/gtest.h>

#include "asx/ac_index.h"
#include "bounded/beas_session.h"
#include "bounded/step_program.h"
#include "bounded/tuple_batch.h"
#include "common/rng.h"
#include "exec/grouping.h"
#include "expr/evaluator.h"
#include "expr/expr_program.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::D;
using testing_util::I;
using testing_util::S;

Value N() { return Value::Null(); }

// ---------------------------------------------------------------------------
// TupleBatch.
// ---------------------------------------------------------------------------

TupleBatch MakeBatch(const std::vector<Row>& rows,
                     const std::vector<uint64_t>& weights) {
  size_t cols = rows.empty() ? 0 : rows[0].size();
  TupleBatch batch(cols);
  batch.set_num_rows(rows.size());
  for (size_t c = 0; c < cols; ++c) {
    for (const Row& row : rows) batch.column(c).values.push_back(row[c]);
  }
  batch.weights() = weights;
  return batch;
}

/// Encodes string column `c` of `batch` through `dict` (NULLs become
/// kNullCode), converting it to the dictionary-encoded representation.
void EncodeColumn(TupleBatch* batch, size_t c, StringDict* dict) {
  BatchColumn& col = batch->column(c);
  for (const Value& v : col.values) {
    col.codes.push_back(v.is_null() ? TupleBatch::kNullCode
                                    : dict->Intern(v.AsString()));
  }
  col.values.clear();
  col.dict = dict;
}

TEST(TupleBatchTest, DedupMergesWeightsFirstOccurrenceOrder) {
  TupleBatch batch = MakeBatch(
      {{I(1), S("a")}, {I(2), S("b")}, {I(1), S("a")}, {I(3), S("a")},
       {I(2), S("b")}},
      {2, 1, 3, 1, 10});
  batch.DedupMergeWeights();
  EXPECT_EQ(batch.num_rows(), 3u);
  EXPECT_EQ(batch.ToRows(),
            (std::vector<Row>{{I(1), S("a")}, {I(2), S("b")}, {I(3), S("a")}}));
  EXPECT_EQ(batch.weights(), (std::vector<uint64_t>{5, 11, 1}));
}

TEST(TupleBatchTest, DedupTreatsNullEqualToNull) {
  TupleBatch batch = MakeBatch({{N(), I(1)}, {N(), I(1)}, {I(1), N()}},
                               {1, 1, 1});
  batch.DedupMergeWeights();
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.weights(), (std::vector<uint64_t>{2, 1}));
}

TEST(TupleBatchTest, FilterKeepsOrderAndWeightsAndHashes) {
  TupleBatch batch = MakeBatch({{I(1)}, {I(2)}, {I(3)}, {I(4)}}, {1, 2, 3, 4});
  batch.ComputeHashes();
  uint64_t h2 = batch.hashes()[1];
  uint64_t h4 = batch.hashes()[3];
  batch.Filter({0, 1, 0, 1});
  EXPECT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.ToRows(), (std::vector<Row>{{I(2)}, {I(4)}}));
  EXPECT_EQ(batch.weights(), (std::vector<uint64_t>{2, 4}));
  ASSERT_TRUE(batch.hashes_valid());
  EXPECT_EQ(batch.hashes()[0], h2);
  EXPECT_EQ(batch.hashes()[1], h4);
}

TEST(TupleBatchTest, HashesMatchValueVecHash) {
  TupleBatch batch = MakeBatch({{I(7), S("x")}, {D(1.5), N()}}, {1, 1});
  batch.ComputeHashes();
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    EXPECT_EQ(batch.hashes()[r], ValueVecHash{}(batch.GetRow(r)));
  }
}

TEST(TupleBatchTest, ZeroColumnBatchCarriesRows) {
  TupleBatch batch;
  batch.set_num_rows(1);
  batch.weights().assign(1, 1);
  EXPECT_EQ(batch.ToRows(), std::vector<Row>{Row{}});
  batch.DedupMergeWeights();
  EXPECT_EQ(batch.num_rows(), 1u);
}

TEST(ValueVecGrouperTest, AssignsDenseIdsInFirstAppearanceOrder) {
  ValueVecGrouper grouper;
  EXPECT_EQ(grouper.IdFor({I(5)}), 0u);
  EXPECT_EQ(grouper.IdFor({I(7)}), 1u);
  EXPECT_EQ(grouper.IdFor({I(5)}), 0u);
  EXPECT_EQ(grouper.IdFor({N()}), 2u);
  EXPECT_EQ(grouper.IdFor({N()}), 2u);
  // Survives growth.
  for (int i = 0; i < 100; ++i) grouper.IdFor({I(100 + i)});
  EXPECT_EQ(grouper.IdFor({I(7)}), 1u);
  EXPECT_EQ(grouper.size(), 103u);
  const std::vector<ValueVec>& keys = grouper.keys();
  EXPECT_EQ(keys[0], ValueVec{I(5)});
  EXPECT_EQ(keys[1], ValueVec{I(7)});
}

// ---------------------------------------------------------------------------
// ExprProgram vs the tree evaluator, on randomized batches.
// ---------------------------------------------------------------------------

/// Identity slot mapping of width n.
std::vector<int64_t> IdentitySlots(size_t n) {
  std::vector<int64_t> slots(n);
  for (size_t i = 0; i < n; ++i) slots[i] = static_cast<int64_t>(i);
  return slots;
}

void ExpectProgramMatchesTreeEval(const ExprPtr& expr, size_t arity,
                                  const std::vector<Row>& rows) {
  auto program = ExprProgram::Compile(*expr, IdentitySlots(arity));
  ASSERT_TRUE(program.has_value()) << expr->ToString();
  auto literals = program->BindLiterals(*expr);
  ASSERT_TRUE(literals.ok()) << literals.status().ToString();

  TupleBatch batch(arity);
  batch.set_num_rows(rows.size());
  for (size_t c = 0; c < arity; ++c) {
    for (const Row& row : rows) batch.column(c).values.push_back(row[c]);
  }
  std::vector<char> keep(rows.size(), 1);
  program->FilterBatch(batch.columns().data(), rows.size(), *literals, &keep);
  for (size_t r = 0; r < rows.size(); ++r) {
    auto expected = EvalPredicate(*expr, rows[r]);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(keep[r] != 0, *expected)
        << expr->ToString() << " on " << RowToString(rows[r]);
  }

  // Same program over the same batch with every string column
  // dictionary-encoded: the encoded kernels must agree bit-for-bit.
  StringDict dict;
  bool any_encoded = false;
  for (size_t c = 0; c < arity; ++c) {
    bool is_string = false;
    bool mixed = false;
    for (const Row& row : rows) {
      if (row[c].is_null()) continue;
      if (row[c].type() == TypeId::kString) {
        is_string = true;
      } else {
        mixed = true;
      }
    }
    if (is_string && !mixed) {
      EncodeColumn(&batch, c, &dict);
      any_encoded = true;
    }
  }
  if (any_encoded) {
    std::vector<char> keep_encoded(rows.size(), 1);
    program->FilterBatch(batch.columns().data(), rows.size(), *literals,
                         &keep_encoded);
    EXPECT_EQ(keep, keep_encoded) << expr->ToString();
  }
}

TEST(ExprProgramTest, MatchesTreeEvaluatorOnPredicateShapes) {
  ExprPtr c0 = Expression::Column(0, TypeId::kInt64, "c0");
  ExprPtr c1 = Expression::Column(1, TypeId::kInt64, "c1");
  ExprPtr c2 = Expression::Column(2, TypeId::kString, "c2");

  std::vector<ExprPtr> predicates = {
      Expression::Compare(CompareOp::kEq, c0, Expression::Literal(I(3))),
      Expression::Compare(CompareOp::kNe, c0, c1),
      Expression::Logic(
          LogicOp::kAnd,
          Expression::Compare(CompareOp::kLe, c0, Expression::Literal(I(2))),
          Expression::Compare(CompareOp::kGt, c1, Expression::Literal(I(1)))),
      Expression::Logic(
          LogicOp::kOr,
          Expression::Compare(CompareOp::kEq, c2,
                              Expression::Literal(S("x"))),
          Expression::IsNull(c2, false)),
      Expression::Not(
          Expression::Compare(CompareOp::kLt, c0, Expression::Literal(I(2)))),
      Expression::Between(c0, Expression::Literal(I(1)),
                          Expression::Literal(I(3))),
      Expression::InList(c0, {I(0), I(2), Value::Null()}),
      Expression::Compare(
          CompareOp::kGe,
          Expression::Arith(ArithOp::kAdd, c0,
                            Expression::Neg(Expression::Literal(I(1)))),
          Expression::Arith(ArithOp::kMul, c1, Expression::Literal(I(2)))),
      Expression::Compare(
          CompareOp::kEq,
          Expression::Arith(ArithOp::kMod, c0, Expression::Literal(I(2))),
          Expression::Literal(I(0))),
      Expression::IsNull(c0, true),
  };

  Rng rng(7);
  std::vector<Row> rows;
  for (int r = 0; r < 200; ++r) {
    Row row;
    row.push_back(rng.Chance(0.15) ? N() : I(rng.Uniform(0, 4)));
    row.push_back(rng.Chance(0.15) ? N() : I(rng.Uniform(0, 4)));
    row.push_back(rng.Chance(0.15) ? N()
                                   : S(rng.Chance(0.5) ? "x" : "y"));
    rows.push_back(std::move(row));
  }
  for (const ExprPtr& predicate : predicates) {
    ExpectProgramMatchesTreeEval(predicate, 3, rows);
  }
}

TEST(ExprProgramTest, EncodedFastPathsMatchGenericOnStringPredicates) {
  // Every fast pattern over a dictionary-encoded string column, including
  // literals absent from the dictionary (the constant-fold cases) and
  // byte-ordered range compares (codes are not order-preserving).
  ExprPtr s = Expression::Column(0, TypeId::kString, "s");
  std::vector<ExprPtr> predicates = {
      Expression::Compare(CompareOp::kEq, s, Expression::Literal(S("bb"))),
      Expression::Compare(CompareOp::kEq, s,
                          Expression::Literal(S("not-there"))),
      Expression::Compare(CompareOp::kNe, s, Expression::Literal(S("bb"))),
      Expression::Compare(CompareOp::kNe, s,
                          Expression::Literal(S("not-there"))),
      Expression::Compare(CompareOp::kLt, s, Expression::Literal(S("bb"))),
      Expression::Compare(CompareOp::kGe, s, Expression::Literal(S("b"))),
      Expression::Between(s, Expression::Literal(S("a")),
                          Expression::Literal(S("bz"))),
      Expression::InList(s, {S("aa"), S("cc"), S("nope"), Value::Null()}),
      Expression::IsNull(s, false),
      Expression::IsNull(s, true),
      Expression::Compare(CompareOp::kEq, s,
                          Expression::Literal(Value::Null())),
  };
  std::vector<Row> rows = {{S("aa")}, {S("bb")}, {N()}, {S("cc")},
                           {S("b")},  {S("bb")}, {S("")}};
  for (const ExprPtr& predicate : predicates) {
    ExpectProgramMatchesTreeEval(predicate, 1, rows);
  }
}

TEST(TupleBatchTest, EncodedColumnsDedupFilterAndHashLikeGeneric) {
  std::vector<Row> rows = {{S("x"), I(1)}, {S("y"), I(2)}, {S("x"), I(1)},
                           {N(), I(3)},    {N(), I(3)},    {S("x"), I(2)}};
  std::vector<uint64_t> weights = {1, 2, 3, 4, 5, 6};
  TupleBatch generic = MakeBatch(rows, weights);
  TupleBatch encoded = MakeBatch(rows, weights);
  StringDict dict;
  EncodeColumn(&encoded, 0, &dict);

  generic.ComputeHashes();
  encoded.ComputeHashes();
  ASSERT_EQ(generic.hashes(), encoded.hashes())
      << "encoded rows must hash exactly like their materialized twins";

  generic.DedupMergeWeights();
  encoded.DedupMergeWeights();
  EXPECT_EQ(generic.num_rows(), 4u);
  EXPECT_EQ(encoded.num_rows(), 4u);
  EXPECT_EQ(generic.weights(), encoded.weights());
  for (size_t r = 0; r < generic.num_rows(); ++r) {
    EXPECT_EQ(CompareValueVec(generic.GetRow(r), encoded.GetRow(r)), 0);
  }

  std::vector<char> keep = {1, 0, 1, 0};
  generic.Filter(keep);
  encoded.Filter(keep);
  EXPECT_EQ(generic.ToRows(), encoded.ToRows());
  EXPECT_EQ(generic.weights(), encoded.weights());
  EXPECT_EQ(generic.hashes(), encoded.hashes());
}

TEST(ExprProgramTest, CrossDictColumnEqualityTranslatesCodesNotBytes) {
  // Post-join equality between string columns of two different
  // dictionaries: the fast path resolves each distinct left code against
  // the right dictionary once per batch, through the left dictionary's
  // precomputed byte hash — zero byte hashing.
  ExprPtr a = Expression::Column(0, TypeId::kString, "a");
  ExprPtr b = Expression::Column(1, TypeId::kString, "b");
  std::vector<Row> rows = {
      {S("x"), S("x")}, {S("y"), S("x")}, {S("x"), S("y")},
      {N(), S("x")},    {S("y"), N()},    {S("left-only"), S("x")},
      {S("x"), S("x")}, {S("y"), S("y")}, {N(), N()}};
  for (CompareOp cmp : {CompareOp::kEq, CompareOp::kNe}) {
    ExprPtr pred = Expression::Compare(cmp, a, b);
    auto program = ExprProgram::Compile(*pred, IdentitySlots(2));
    ASSERT_TRUE(program.has_value());
    auto literals = program->BindLiterals(*pred);
    ASSERT_TRUE(literals.ok());
    TupleBatch batch =
        MakeBatch(rows, std::vector<uint64_t>(rows.size(), 1));
    StringDict left_dict;
    StringDict right_dict;
    // Skew the right dictionary's code space so equal strings get
    // different codes in the two dictionaries.
    right_dict.Intern("zzz");
    EncodeColumn(&batch, 0, &left_dict);
    EncodeColumn(&batch, 1, &right_dict);

    std::vector<char> keep(rows.size(), 1);
    uint64_t hashes_before = tls_hash_string_calls;
    uint64_t translates_before = tls_cross_dict_translates;
    program->FilterBatch(batch.columns().data(), rows.size(), *literals,
                         &keep);
    EXPECT_EQ(tls_hash_string_calls, hashes_before)
        << "translation must reuse the left dictionary's stored hashes";
    // Three distinct non-NULL left codes reach translation: x, y,
    // left-only — once each, regardless of how many rows repeat them.
    EXPECT_EQ(tls_cross_dict_translates, translates_before + 3);

    for (size_t r = 0; r < rows.size(); ++r) {
      auto expected = EvalPredicate(*pred, rows[r]);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(keep[r] != 0, *expected)
          << "cmp=" << static_cast<int>(cmp) << " row "
          << RowToString(rows[r]);
    }
  }
}

TEST(ExprProgramTest, SameDictColumnCompareUsesRawCodes) {
  ExprPtr a = Expression::Column(0, TypeId::kString, "a");
  ExprPtr b = Expression::Column(1, TypeId::kString, "b");
  // One shared dictionary: equality compares raw codes, ordering compares
  // bytes in the row loop; neither hashes nor translates.
  std::vector<Row> rows = {{S("aa"), S("aa")}, {S("aa"), S("bb")},
                           {S("bb"), S("aa")}, {S("cc"), S("cc")},
                           {N(), S("aa")},     {S("bb"), N()}};
  for (CompareOp cmp : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                        CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    ExprPtr pred = Expression::Compare(cmp, a, b);
    auto program = ExprProgram::Compile(*pred, IdentitySlots(2));
    ASSERT_TRUE(program.has_value());
    auto literals = program->BindLiterals(*pred);
    ASSERT_TRUE(literals.ok());
    TupleBatch batch =
        MakeBatch(rows, std::vector<uint64_t>(rows.size(), 1));
    StringDict dict;
    EncodeColumn(&batch, 0, &dict);
    EncodeColumn(&batch, 1, &dict);

    std::vector<char> keep(rows.size(), 1);
    uint64_t hashes_before = tls_hash_string_calls;
    uint64_t translates_before = tls_cross_dict_translates;
    program->FilterBatch(batch.columns().data(), rows.size(), *literals,
                         &keep);
    EXPECT_EQ(tls_hash_string_calls, hashes_before);
    EXPECT_EQ(tls_cross_dict_translates, translates_before)
        << "same dictionary needs no translation";

    for (size_t r = 0; r < rows.size(); ++r) {
      auto expected = EvalPredicate(*pred, rows[r]);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(keep[r] != 0, *expected)
          << "cmp=" << static_cast<int>(cmp) << " row "
          << RowToString(rows[r]);
    }
  }
}

TEST(ExprProgramTest, ColCmpColFallsBackOnMixedAndOrderedShapes) {
  ExprPtr a = Expression::Column(0, TypeId::kString, "a");
  ExprPtr b = Expression::Column(1, TypeId::kString, "b");
  std::vector<Row> rows = {{S("x"), S("y")}, {S("y"), S("x")},
                           {S("x"), S("x")}, {N(), S("x")}};
  for (CompareOp cmp : {CompareOp::kLt, CompareOp::kGe, CompareOp::kEq}) {
    ExprPtr pred = Expression::Compare(cmp, a, b);
    auto program = ExprProgram::Compile(*pred, IdentitySlots(2));
    ASSERT_TRUE(program.has_value());
    auto literals = program->BindLiterals(*pred);
    ASSERT_TRUE(literals.ok());
    // One column encoded, one generic: the row-loop fallback must still
    // match the tree evaluator. Interned out of byte order, so code order
    // would give wrong ordering answers.
    TupleBatch batch =
        MakeBatch(rows, std::vector<uint64_t>(rows.size(), 1));
    StringDict dict;
    dict.Intern("y");
    dict.Intern("x");
    EncodeColumn(&batch, 0, &dict);
    std::vector<char> keep(rows.size(), 1);
    program->FilterBatch(batch.columns().data(), rows.size(), *literals,
                         &keep);
    for (size_t r = 0; r < rows.size(); ++r) {
      auto expected = EvalPredicate(*pred, rows[r]);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(keep[r] != 0, *expected)
          << "cmp=" << static_cast<int>(cmp) << " row "
          << RowToString(rows[r]);
    }
  }

  // Integer col = col also lands on the pattern; the generic loop carries
  // it (covered by MatchesTreeEvaluatorOnPredicateShapes's kNe case, and
  // pinned here for equality).
  ExprPtr i0 = Expression::Column(0, TypeId::kInt64, "i0");
  ExprPtr i1 = Expression::Column(1, TypeId::kInt64, "i1");
  ExprPtr pred = Expression::Compare(CompareOp::kEq, i0, i1);
  auto program = ExprProgram::Compile(*pred, IdentitySlots(2));
  ASSERT_TRUE(program.has_value());
  auto literals = program->BindLiterals(*pred);
  ASSERT_TRUE(literals.ok());
  std::vector<Row> int_rows = {{I(1), I(1)}, {I(1), I(2)}, {N(), I(1)}};
  TupleBatch batch =
      MakeBatch(int_rows, std::vector<uint64_t>(int_rows.size(), 1));
  std::vector<char> keep(int_rows.size(), 1);
  program->FilterBatch(batch.columns().data(), int_rows.size(), *literals,
                       &keep);
  EXPECT_EQ(keep, (std::vector<char>{1, 0, 0}));
}

TEST(ExprProgramTest, RefusesStaticallyTypeUnsoundComparisons) {
  ExprPtr int_col = Expression::Column(0, TypeId::kInt64, "i");
  ExprPtr str_col = Expression::Column(1, TypeId::kString, "s");
  // string vs int compare: the tree evaluator would error when reached,
  // but AND/OR short-circuit can shield it — not compilable.
  EXPECT_FALSE(ExprProgram::Compile(
                   *Expression::Compare(CompareOp::kEq, int_col, str_col),
                   IdentitySlots(2))
                   .has_value());
  // string arithmetic: same story.
  EXPECT_FALSE(
      ExprProgram::Compile(*Expression::Arith(ArithOp::kAdd, str_col,
                                              Expression::Literal(I(1))),
                           IdentitySlots(2))
          .has_value());
  // Missing column slot.
  EXPECT_FALSE(ExprProgram::Compile(
                   *Expression::Compare(CompareOp::kEq, int_col,
                                        Expression::Literal(I(1))),
                   std::vector<int64_t>{})
                   .has_value());
  // NULL literals compare with anything (always NULL -> sound).
  EXPECT_TRUE(ExprProgram::Compile(
                  *Expression::Compare(CompareOp::kEq, str_col,
                                       Expression::Literal(Value::Null())),
                  IdentitySlots(2))
                  .has_value());
}

TEST(ExprProgramTest, BindLiteralsValidatesShapeAndTypes) {
  ExprPtr c0 = Expression::Column(0, TypeId::kInt64, "c0");
  ExprPtr tmpl =
      Expression::Logic(LogicOp::kAnd,
                        Expression::Compare(CompareOp::kEq, c0,
                                            Expression::Literal(I(7))),
                        Expression::InList(c0, {I(1), I(2)}));
  auto program = ExprProgram::Compile(*tmpl, IdentitySlots(1));
  ASSERT_TRUE(program.has_value());
  EXPECT_EQ(program->num_literals(), 3u);

  // Same shape, new values: literals re-collected in compile order.
  ExprPtr instance =
      Expression::Logic(LogicOp::kAnd,
                        Expression::Compare(CompareOp::kEq, c0,
                                            Expression::Literal(I(9))),
                        Expression::InList(c0, {I(3), I(4)}));
  auto literals = program->BindLiterals(*instance);
  ASSERT_TRUE(literals.ok());
  EXPECT_EQ((*literals)[0], I(9));
  EXPECT_EQ((*literals)[1], I(3));
  EXPECT_EQ((*literals)[2], I(4));

  // A type drift is rejected (caller falls back to the interpreted walk).
  ExprPtr drifted =
      Expression::Logic(LogicOp::kAnd,
                        Expression::Compare(CompareOp::kEq, c0,
                                            Expression::Literal(S("no"))),
                        Expression::InList(c0, {I(3), I(4)}));
  EXPECT_FALSE(program->BindLiterals(*drifted).ok());
}

// ---------------------------------------------------------------------------
// AcIndex::LookupBatch.
// ---------------------------------------------------------------------------

TEST(AcIndexBatchTest, LookupBatchMatchesScalarLookups) {
  Database db;
  testing_util::MakeTable(&db, "t",
                          Schema({{"k", TypeId::kInt64},
                                  {"v", TypeId::kInt64}}),
                          {{I(1), I(10)},
                           {I(1), I(10)},
                           {I(1), I(11)},
                           {I(2), I(20)},
                           {I(3), I(30)}});
  TableInfo* info = *db.catalog()->GetTable("t");
  auto index = AcIndex::Build({"psi", "t", {"k"}, {"v"}, 10}, *info->heap());
  ASSERT_TRUE(index.ok());

  std::vector<ValueVec> keys = {{I(1)}, {I(2)}, {I(9)}, {N()}, {I(3)}};
  std::vector<AcIndex::BucketView> out(keys.size());
  (*index)->LookupBatch(keys.data(), keys.size(), out.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    AcIndex::BucketView expected = (*index)->LookupWithCounts(keys[i]);
    EXPECT_EQ(out[i].cells, expected.cells) << i;
    EXPECT_EQ(out[i].mults, expected.mults) << i;
    EXPECT_EQ(out[i].size(), expected.size()) << i;
  }
  EXPECT_EQ(out[0].size(), 2u);   // distinct v's of k=1
  EXPECT_EQ(out[0].multiplicity(0), 2u);  // v=10 appears twice
  EXPECT_EQ(out[2].size(), 0u);   // missing key
  EXPECT_EQ(out[3].size(), 0u);   // NULL key never matches
}

TEST(AcIndexBatchTest, LookupBatchDoesZeroStringHashingOnDictKeys) {
  // The dictionary-encoding contract of the probe path: for a table whose
  // string values are interned, LookupBatch over dictionary-backed keys
  // must hash string components via the dictionary's precomputed hashes —
  // zero HashString (byte-hash) calls per probe.
  Database db;
  std::vector<Row> rows;
  for (int i = 0; i < 64; ++i) {
    rows.push_back({S("key_with_some_length_" + std::to_string(i % 16)),
                    S("payload_" + std::to_string(i))});
  }
  testing_util::MakeTable(
      &db, "t", Schema({{"k", TypeId::kString}, {"v", TypeId::kString}}),
      rows);
  TableInfo* info = *db.catalog()->GetTable("t");
  ASSERT_NE(info->heap()->dict(), nullptr);
  auto index = AcIndex::Build({"psi", "t", {"k"}, {"v"}, 64}, *info->heap());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->dict(), info->heap()->dict());

  // Dictionary-backed probe keys, straight from the stored rows.
  std::vector<ValueVec> keys;
  for (auto it = info->heap()->Begin(); it.Valid(); it.Next()) {
    keys.push_back({it.row()[0]});
  }
  std::vector<AcIndex::BucketView> out(keys.size());

  uint64_t before = tls_hash_string_calls;
  (*index)->LookupBatch(keys.data(), keys.size(), out.data());
  EXPECT_EQ(tls_hash_string_calls, before)
      << "dict-backed probe keys must not hash string bytes";
  for (const AcIndex::BucketView& bucket : out) {
    EXPECT_GT(bucket.size(), 0u);
  }

  // Contrast: inline (non-interned) string keys still answer correctly,
  // but pay byte hashing — the path the dictionary removes.
  std::vector<ValueVec> inline_keys;
  for (int i = 0; i < 16; ++i) {
    inline_keys.push_back(
        {S("key_with_some_length_" + std::to_string(i))});
  }
  std::vector<AcIndex::BucketView> inline_out(inline_keys.size());
  before = tls_hash_string_calls;
  (*index)->LookupBatch(inline_keys.data(), inline_keys.size(),
                        inline_out.data());
  EXPECT_GT(tls_hash_string_calls, before);
  for (const AcIndex::BucketView& bucket : inline_out) {
    EXPECT_GT(bucket.size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// CompileBoundedPlan over a real covered query.
// ---------------------------------------------------------------------------

TEST(StepProgramTest, CompilesCoveredPlanWithResolvedIndices) {
  Database db;
  testing_util::MakeTable(&db, "call",
                          Schema({{"pnum", TypeId::kInt64},
                                  {"recnum", TypeId::kInt64},
                                  {"region", TypeId::kString}}),
                          {{I(7), I(100), S("R1")}, {I(7), I(101), S("R2")}});
  AsCatalog catalog(&db);
  ASSERT_TRUE(
      catalog.Register({"psi", "call", {"pnum"}, {"recnum", "region"}, 10})
          .ok());
  BeasSession session(&db, &catalog);
  const char* sql = "SELECT call.region FROM call WHERE call.pnum = 7 AND "
                    "call.recnum > 100";
  auto coverage = session.Check(sql);
  ASSERT_TRUE(coverage.ok());
  ASSERT_TRUE(coverage->covered) << coverage->reason;
  auto query = db.Bind(sql);
  ASSERT_TRUE(query.ok());

  auto compiled = CompileBoundedPlan(*query, coverage->plan, catalog);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->steps.size(), coverage->plan.steps.size());
  for (size_t s = 0; s < compiled->steps.size(); ++s) {
    const StepProgram& program = compiled->steps[s];
    EXPECT_EQ(program.index,
              catalog.IndexFor(coverage->plan.steps[s].constraint.name));
    EXPECT_EQ(program.out_sources.size(),
              coverage->plan.steps[s].added_columns.size());
    EXPECT_EQ(program.conjunct_programs.size(),
              coverage->plan.steps[s].conjuncts_after.size());
  }
  // An unknown constraint fails compilation.
  BoundedPlan broken = coverage->plan;
  broken.steps[0].constraint.name = "nope";
  EXPECT_FALSE(CompileBoundedPlan(*query, broken, catalog).ok());
}

}  // namespace
}  // namespace beas
