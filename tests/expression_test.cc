#include <gtest/gtest.h>

#include <cstdint>

#include "expr/evaluator.h"
#include "expr/expr_program.h"
#include "expr/expression.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::D;
using testing_util::I;
using testing_util::N;
using testing_util::S;

ExprPtr Col(size_t i, TypeId t = TypeId::kInt64) {
  return Expression::Column(i, t, "c" + std::to_string(i));
}
ExprPtr Lit(Value v) { return Expression::Literal(std::move(v)); }

Value MustEval(const ExprPtr& e, const Row& row) {
  auto v = Eval(*e, row);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? *v : Value::Null();
}

TEST(ExpressionTest, ColumnRefReadsRow) {
  Row row{I(10), S("x")};
  EXPECT_EQ(MustEval(Col(0), row), I(10));
  EXPECT_EQ(MustEval(Col(1, TypeId::kString), row), S("x"));
}

TEST(ExpressionTest, ColumnOutOfRangeIsInternalError) {
  EXPECT_EQ(Eval(*Col(3), Row{I(1)}).status().code(), StatusCode::kInternal);
}

TEST(ExpressionTest, CompareOps) {
  Row row{I(5)};
  auto check = [&](CompareOp op, int64_t rhs, bool expect) {
    auto e = Expression::Compare(op, Col(0), Lit(I(rhs)));
    EXPECT_EQ(MustEval(e, row), I(expect ? 1 : 0));
  };
  check(CompareOp::kEq, 5, true);
  check(CompareOp::kEq, 6, false);
  check(CompareOp::kNe, 6, true);
  check(CompareOp::kLt, 6, true);
  check(CompareOp::kLe, 5, true);
  check(CompareOp::kGt, 4, true);
  check(CompareOp::kGe, 6, false);
}

TEST(ExpressionTest, CompareNullIsNull) {
  auto e = Expression::Compare(CompareOp::kEq, Col(0), Lit(I(1)));
  EXPECT_TRUE(MustEval(e, Row{N()}).is_null());
}

TEST(ExpressionTest, CompareStringWithIntIsTypeError) {
  auto e = Expression::Compare(CompareOp::kEq, Lit(S("x")), Lit(I(1)));
  EXPECT_EQ(Eval(*e, {}).status().code(), StatusCode::kTypeError);
}

TEST(ExpressionTest, ArithIntAndDouble) {
  auto add = Expression::Arith(ArithOp::kAdd, Lit(I(2)), Lit(I(3)));
  EXPECT_EQ(MustEval(add, {}), I(5));
  auto mul = Expression::Arith(ArithOp::kMul, Lit(I(2)), Lit(D(1.5)));
  EXPECT_EQ(MustEval(mul, {}).AsDouble(), 3.0);
  auto div = Expression::Arith(ArithOp::kDiv, Lit(I(7)), Lit(I(2)));
  EXPECT_EQ(MustEval(div, {}), I(3)) << "integer division";
  auto mod = Expression::Arith(ArithOp::kMod, Lit(I(7)), Lit(I(4)));
  EXPECT_EQ(MustEval(mod, {}), I(3));
}

TEST(ExpressionTest, DivisionByZeroIsNull) {
  auto div = Expression::Arith(ArithOp::kDiv, Lit(I(7)), Lit(I(0)));
  EXPECT_TRUE(MustEval(div, {}).is_null());
  auto fdiv = Expression::Arith(ArithOp::kDiv, Lit(D(7)), Lit(D(0)));
  EXPECT_TRUE(MustEval(fdiv, {}).is_null());
  auto mod = Expression::Arith(ArithOp::kMod, Lit(I(7)), Lit(I(0)));
  EXPECT_TRUE(MustEval(mod, {}).is_null());
}

/// Evaluates `expr` over the single row `row` through a compiled
/// ExprProgram — the batch path that shares ArithValuesTotal with Eval.
Value ProgramEval(const ExprPtr& expr, const Row& row) {
  std::vector<int64_t> slots(row.size());
  std::vector<BatchColumn> cols(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    slots[c] = static_cast<int64_t>(c);
    cols[c].values.push_back(row[c]);
  }
  auto program = ExprProgram::Compile(*expr, slots);
  EXPECT_TRUE(program.has_value()) << expr->ToString();
  if (!program.has_value()) return Value::Null();
  auto literals = program->BindLiterals(*expr);
  EXPECT_TRUE(literals.ok()) << literals.status().ToString();
  std::vector<Value> stack;
  return program->EvalRow(cols.data(), 0, *literals, &stack);
}

TEST(ExpressionTest, Int64EdgesNeverTrapOrWrap) {
  const Value min = I(INT64_MIN);
  const Value max = I(INT64_MAX);
  struct Case {
    ArithOp op;
    Value l, r;
    Value expect;
  };
  const Case cases[] = {
      {ArithOp::kDiv, min, I(-1), N()},  // does not fit: NULL, not SIGFPE
      {ArithOp::kMod, min, I(-1), I(0)},
      {ArithOp::kMod, I(7), I(-1), I(0)},
      {ArithOp::kMod, I(-7), I(2), I(-1)},
      {ArithOp::kDiv, min, I(1), min},
      {ArithOp::kDiv, max, I(-1), I(-INT64_MAX)},
      {ArithOp::kAdd, max, I(1), N()},
      {ArithOp::kAdd, min, I(-1), N()},
      {ArithOp::kAdd, max, min, I(-1)},
      {ArithOp::kSub, min, I(1), N()},
      {ArithOp::kSub, I(0), min, N()},
      {ArithOp::kSub, I(-1), max, min},
      {ArithOp::kMul, max, I(2), N()},
      {ArithOp::kMul, min, I(-1), N()},
      {ArithOp::kMul, I(1LL << 31), I(1LL << 31), I(1LL << 62)},
  };
  for (const Case& c : cases) {
    // Both operands arrive as columns, so the program sees run-time
    // values exactly like the evaluator does.
    auto e = Expression::Arith(c.op, Col(0), Col(1));
    SCOPED_TRACE(e->ToString() + " on " + c.l.ToString() + ", " +
                 c.r.ToString());
    Value tree = MustEval(e, Row{c.l, c.r});
    Value program = ProgramEval(e, Row{c.l, c.r});
    EXPECT_EQ(tree, c.expect);
    EXPECT_EQ(program, c.expect);
  }
  auto neg = Expression::Neg(Col(0));
  EXPECT_TRUE(MustEval(neg, Row{min}).is_null());
  EXPECT_TRUE(ProgramEval(neg, Row{min}).is_null());
  EXPECT_EQ(MustEval(neg, Row{max}), I(-INT64_MAX));
  EXPECT_EQ(ProgramEval(neg, Row{max}), I(-INT64_MAX));
}

TEST(ExpressionTest, ArithNullPropagates) {
  auto add = Expression::Arith(ArithOp::kAdd, Lit(N()), Lit(I(3)));
  EXPECT_TRUE(MustEval(add, {}).is_null());
}

TEST(ExpressionTest, LogicThreeValued) {
  auto t = Lit(I(1));
  auto f = Lit(I(0));
  auto n = Lit(N());
  auto eval = [&](LogicOp op, ExprPtr a, ExprPtr b) {
    return MustEval(Expression::Logic(op, a, b), {});
  };
  EXPECT_EQ(eval(LogicOp::kAnd, t, t), I(1));
  EXPECT_EQ(eval(LogicOp::kAnd, t, f), I(0));
  EXPECT_EQ(eval(LogicOp::kAnd, f, n), I(0)) << "false AND null = false";
  EXPECT_TRUE(eval(LogicOp::kAnd, t, n).is_null()) << "true AND null = null";
  EXPECT_EQ(eval(LogicOp::kOr, f, t), I(1));
  EXPECT_EQ(eval(LogicOp::kOr, t, n), I(1)) << "true OR null = true";
  EXPECT_TRUE(eval(LogicOp::kOr, f, n).is_null()) << "false OR null = null";
}

TEST(ExpressionTest, NotAndNeg) {
  EXPECT_EQ(MustEval(Expression::Not(Lit(I(0))), {}), I(1));
  EXPECT_EQ(MustEval(Expression::Not(Lit(I(1))), {}), I(0));
  EXPECT_TRUE(MustEval(Expression::Not(Lit(N())), {}).is_null());
  EXPECT_EQ(MustEval(Expression::Neg(Lit(I(5))), {}), I(-5));
  EXPECT_EQ(MustEval(Expression::Neg(Lit(D(2.5))), {}).AsDouble(), -2.5);
}

TEST(ExpressionTest, Between) {
  auto e = Expression::Between(Col(0), Lit(I(2)), Lit(I(4)));
  EXPECT_EQ(MustEval(e, Row{I(3)}), I(1));
  EXPECT_EQ(MustEval(e, Row{I(2)}), I(1)) << "inclusive";
  EXPECT_EQ(MustEval(e, Row{I(4)}), I(1)) << "inclusive";
  EXPECT_EQ(MustEval(e, Row{I(5)}), I(0));
  EXPECT_TRUE(MustEval(e, Row{N()}).is_null());
}

TEST(ExpressionTest, InList) {
  auto e = Expression::InList(Col(0), {I(1), I(3), I(5)});
  EXPECT_EQ(MustEval(e, Row{I(3)}), I(1));
  EXPECT_EQ(MustEval(e, Row{I(2)}), I(0));
  EXPECT_TRUE(MustEval(e, Row{N()}).is_null());
}

TEST(ExpressionTest, IsNull) {
  auto is_null = Expression::IsNull(Col(0), false);
  auto not_null = Expression::IsNull(Col(0), true);
  EXPECT_EQ(MustEval(is_null, Row{N()}), I(1));
  EXPECT_EQ(MustEval(is_null, Row{I(1)}), I(0));
  EXPECT_EQ(MustEval(not_null, Row{N()}), I(0));
  EXPECT_EQ(MustEval(not_null, Row{I(1)}), I(1));
}

TEST(ExpressionTest, EvalPredicateNullIsFalse) {
  auto e = Expression::Compare(CompareOp::kEq, Col(0), Lit(I(1)));
  EXPECT_FALSE(*EvalPredicate(*e, Row{N()}));
  EXPECT_TRUE(*EvalPredicate(*e, Row{I(1)}));
}

TEST(ExpressionTest, ResultTypes) {
  EXPECT_EQ(Col(0)->ResultType(), TypeId::kInt64);
  EXPECT_EQ(Lit(D(1))->ResultType(), TypeId::kDouble);
  auto cmp = Expression::Compare(CompareOp::kEq, Col(0), Lit(I(1)));
  EXPECT_EQ(cmp->ResultType(), TypeId::kInt64);
  auto mixed = Expression::Arith(ArithOp::kAdd, Col(0), Lit(D(1)));
  EXPECT_EQ(mixed->ResultType(), TypeId::kDouble);
}

TEST(ExpressionTest, CollectColumnsDedupSorted) {
  auto e = Expression::Logic(
      LogicOp::kAnd,
      Expression::Compare(CompareOp::kEq, Col(3), Col(1)),
      Expression::Compare(CompareOp::kLt, Col(1), Lit(I(5))));
  std::vector<size_t> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<size_t>{1, 3}));
}

TEST(ExpressionTest, StructuralEquals) {
  auto a = Expression::Compare(CompareOp::kEq, Col(0), Lit(I(1)));
  auto b = Expression::Compare(CompareOp::kEq, Col(0), Lit(I(1)));
  auto c = Expression::Compare(CompareOp::kEq, Col(0), Lit(I(2)));
  auto d = Expression::Compare(CompareOp::kNe, Col(0), Lit(I(1)));
  EXPECT_TRUE(a->Equals(*b));
  EXPECT_FALSE(a->Equals(*c));
  EXPECT_FALSE(a->Equals(*d));
}

TEST(ExpressionTest, RebindColumns) {
  auto e = Expression::Compare(CompareOp::kEq, Col(5), Col(9));
  std::unordered_map<size_t, size_t> mapping{{5, 0}, {9, 1}};
  ExprPtr rebound = RebindColumns(e, mapping);
  ASSERT_NE(rebound, nullptr);
  EXPECT_EQ(rebound->children[0]->column_index, 0u);
  EXPECT_EQ(rebound->children[1]->column_index, 1u);
  // Missing mapping -> nullptr.
  std::unordered_map<size_t, size_t> partial{{5, 0}};
  EXPECT_EQ(RebindColumns(e, partial), nullptr);
}

TEST(ExpressionTest, ToStringStable) {
  auto e = Expression::Logic(
      LogicOp::kAnd, Expression::Compare(CompareOp::kLe, Col(0), Lit(I(5))),
      Expression::InList(Col(1), {I(1), I(2)}));
  EXPECT_EQ(e->ToString(), "((c0 <= 5) AND (c1 IN (1, 2)))");
}

}  // namespace
}  // namespace beas
