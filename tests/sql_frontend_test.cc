#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/sql_template.h"

namespace beas {
namespace {

// Token types of `sql`, masked and lexed (the EOF token included).
std::vector<TokenType> LexTypes(const std::string& sql) {
  Result<SqlTemplate> tmpl = MaskSqlLiterals(sql);
  EXPECT_TRUE(tmpl.ok()) << tmpl.status().ToString();
  if (!tmpl.ok()) return {};
  Lexer lexer(*tmpl);
  auto tokens = lexer.Tokenize();
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<TokenType> types;
  if (tokens.ok()) {
    for (const Token& t : *tokens) types.push_back(t.type);
  }
  return types;
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto types = LexTypes("SELECT select SeLeCt");
  ASSERT_EQ(types.size(), 4u);  // 3 + EOF
  for (int i = 0; i < 3; ++i) EXPECT_EQ(types[i], TokenType::kSelect);
}

TEST(LexerTest, IdentifiersLowercased) {
  SqlTemplate tmpl{"MyTable my_col2", {}};
  Lexer lexer(tmpl);
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "mytable");
  EXPECT_EQ((*tokens)[1].text, "my_col2");
}

TEST(LexerTest, EachMarkIsOneLiteralTokenBoundToItsParameter) {
  SqlTemplate tmpl{"x = ? AND y IN (?, ?)",
                   {Value::Int64(42), Value::Double(3.75), Value::String("s")}};
  Lexer lexer(tmpl);
  auto tokens = lexer.Tokenize();
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<const Token*> literals;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kLiteral) literals.push_back(&t);
  }
  ASSERT_EQ(literals.size(), 3u);
  for (int32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(literals[i]->literal_ordinal, i);
    EXPECT_EQ(literals[i]->value, &tmpl.params[i]);
  }
}

TEST(LexerTest, MarkAndParameterCountsMustAgree) {
  SqlTemplate more{"x = ? AND y = ?", {Value::Int64(1)}};
  EXPECT_EQ(Lexer(more).Tokenize().status().code(), StatusCode::kParseError);
  SqlTemplate fewer{"x = ?", {Value::Int64(1), Value::Int64(2)}};
  EXPECT_EQ(Lexer(fewer).Tokenize().status().code(), StatusCode::kParseError);
}

TEST(LexerTest, OperatorsTwoChar) {
  auto types = LexTypes("<= >= <> != < > =");
  ASSERT_EQ(types.size(), 8u);
  EXPECT_EQ(types[0], TokenType::kLe);
  EXPECT_EQ(types[1], TokenType::kGe);
  EXPECT_EQ(types[2], TokenType::kNe);
  EXPECT_EQ(types[3], TokenType::kNe);
  EXPECT_EQ(types[4], TokenType::kLt);
  EXPECT_EQ(types[5], TokenType::kGt);
  EXPECT_EQ(types[6], TokenType::kEq);
}

TEST(LexerTest, UnknownCharErrors) {
  SqlTemplate tmpl{"select @", {}};
  EXPECT_EQ(Lexer(tmpl).Tokenize().status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// MaskSqlLiterals: the front end's one literal scanner.
// ---------------------------------------------------------------------------

TEST(MaskerTest, IntAndFloatLiterals) {
  auto t = MaskSqlLiterals("42 3.75 0");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->text, "? ? ?");
  ASSERT_EQ(t->params.size(), 3u);
  EXPECT_EQ(t->params[0].type(), TypeId::kInt64);
  EXPECT_EQ(t->params[0].AsInt64(), 42);
  EXPECT_EQ(t->params[1].type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(t->params[1].AsDouble(), 3.75);
  EXPECT_EQ(t->params[2].type(), TypeId::kInt64);
  EXPECT_EQ(t->params[2].AsInt64(), 0);
}

TEST(MaskerTest, StringLiteralsWithEscapedQuote) {
  auto t = MaskSqlLiterals("'hello' 'it''s'");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->text, "? ?");
  ASSERT_EQ(t->params.size(), 2u);
  EXPECT_EQ(t->params[0], Value::String("hello"));
  EXPECT_EQ(t->params[1], Value::String("it's"));
}

TEST(MaskerTest, UnterminatedStringErrors) {
  EXPECT_EQ(MaskSqlLiterals("'oops").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Parser::Parse("SELECT a FROM t WHERE b = 'oops").status().code(),
            StatusCode::kParseError);
}

TEST(MaskerTest, CommentsStripped) {
  auto t = MaskSqlLiterals("select -- a comment\n 1");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->text, "select \n ?");
  ASSERT_EQ(t->params.size(), 1u);
  EXPECT_EQ(t->params[0], Value::Int64(1));
  SelectStatement stmt = Parser::Parse("SELECT a -- the column\nFROM t").ValueOrDie();
  EXPECT_EQ(stmt.from[0].table, "t");
}

TEST(MaskerTest, DigitsInsideIdentifiersAreNotLiterals) {
  auto t = MaskSqlLiterals("SELECT t1.a2 FROM t1 WHERE t1.a2 = 10");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->text, "SELECT t1.a2 FROM t1 WHERE t1.a2 = ?");
}

TEST(MaskerTest, BareMarkIsAParseError) {
  EXPECT_EQ(MaskSqlLiterals("SELECT a FROM t WHERE b = ?").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(Parser::Parse("SELECT a FROM t WHERE b = ?").status().code(),
            StatusCode::kParseError);
  // Inside a string literal it is just a character; in a comment it goes.
  auto quoted = MaskSqlLiterals("SELECT a FROM t WHERE b = '?' -- why?\n");
  ASSERT_TRUE(quoted.ok());
  EXPECT_EQ(quoted->text, "SELECT a FROM t WHERE b = ? \n");
  EXPECT_EQ(quoted->params, (std::vector<Value>{Value::String("?")}));
}

// The inputs the masker was once cross-checked against the lexer on: the
// lifted values and their types, in appearance order.
TEST(MaskerTest, LiftsValuesAndTypesInAppearanceOrder) {
  struct Case {
    const char* sql;
    std::vector<Value> params;
  };
  const Case cases[] = {
      {"SELECT x FROM t WHERE id = 7 AND name = 'it''s' -- trailing\n",
       {Value::Int64(7), Value::String("it's")}},
      {"SELECT x FROM t1 WHERE a2 = 10 AND b = 2.5 AND c IN (1, 2, 3)",
       {Value::Int64(10), Value::Double(2.5), Value::Int64(1), Value::Int64(2),
        Value::Int64(3)}},
      {"SELECT x FROM t WHERE d = DATE '2016-03-15' AND e > -42 LIMIT 9",
       {Value::String("2016-03-15"), Value::Int64(42), Value::Int64(9)}},
      {"SELECT x + 1 FROM t WHERE y BETWEEN 0.5 AND 1.5 ORDER BY 1",
       {Value::Int64(1), Value::Double(0.5), Value::Double(1.5),
        Value::Int64(1)}},
      {"SELECT x FROM t WHERE s = '--not a comment' AND z = 3",
       {Value::String("--not a comment"), Value::Int64(3)}},
  };
  for (const Case& c : cases) {
    auto t = MaskSqlLiterals(c.sql);
    ASSERT_TRUE(t.ok()) << c.sql;
    ASSERT_EQ(t->params.size(), c.params.size()) << c.sql;
    for (size_t i = 0; i < c.params.size(); ++i) {
      EXPECT_EQ(t->params[i].type(), c.params[i].type()) << c.sql << " #" << i;
      EXPECT_EQ(t->params[i], c.params[i]) << c.sql << " #" << i;
    }
    EXPECT_TRUE(Parser::Parse(c.sql).ok()) << c.sql;
  }
}

SelectStatement MustParse(const std::string& sql) {
  auto stmt = Parser::Parse(sql);
  EXPECT_TRUE(stmt.ok()) << sql << " -> " << stmt.status().ToString();
  return stmt.ok() ? std::move(*stmt) : SelectStatement{};
}

TEST(ParserTest, MinimalSelect) {
  SelectStatement stmt = MustParse("SELECT a FROM t");
  ASSERT_EQ(stmt.items.size(), 1u);
  EXPECT_EQ(stmt.items[0].expr->ToString(), "a");
  ASSERT_EQ(stmt.from.size(), 1u);
  EXPECT_EQ(stmt.from[0].table, "t");
  EXPECT_EQ(stmt.where, nullptr);
}

TEST(ParserTest, QualifiedColumnsAndAliases) {
  SelectStatement stmt =
      MustParse("SELECT t.a AS x, u.b y FROM tab t, other AS u");
  EXPECT_EQ(stmt.items[0].alias, "x");
  EXPECT_EQ(stmt.items[1].alias, "y");
  EXPECT_EQ(stmt.from[0].alias, "t");
  EXPECT_EQ(stmt.from[1].alias, "u");
  EXPECT_EQ(stmt.items[0].expr->ToString(), "t.a");
}

TEST(ParserTest, WherePrecedenceAndOverOr) {
  SelectStatement stmt =
      MustParse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3");
  // AND binds tighter: (a=1) OR ((b=2) AND (c=3)).
  EXPECT_EQ(stmt.where->ToString(),
            "((a = 1) OR ((b = 2) AND (c = 3)))");
}

TEST(ParserTest, ArithmeticPrecedence) {
  SelectStatement stmt = MustParse("SELECT a + b * c - d FROM t");
  EXPECT_EQ(stmt.items[0].expr->ToString(), "((a + (b * c)) - d)");
}

TEST(ParserTest, ComparisonOperators) {
  SelectStatement stmt = MustParse(
      "SELECT a FROM t WHERE a <= 5 AND b >= 6 AND c <> 7 AND d < 8 AND e > 9");
  EXPECT_NE(stmt.where, nullptr);
  EXPECT_NE(stmt.where->ToString().find("<="), std::string::npos);
}

TEST(ParserTest, BetweenAndIn) {
  SelectStatement stmt = MustParse(
      "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3)");
  EXPECT_EQ(stmt.where->ToString(),
            "((a BETWEEN 1 AND 5) AND (b IN (1, 2, 3)))");
}

TEST(ParserTest, NotVariants) {
  SelectStatement stmt = MustParse(
      "SELECT a FROM t WHERE NOT a = 1 AND b NOT IN (2) AND c NOT BETWEEN 3 "
      "AND 4");
  std::string s = stmt.where->ToString();
  EXPECT_NE(s.find("NOT"), std::string::npos);
}

TEST(ParserTest, IsNull) {
  SelectStatement stmt =
      MustParse("SELECT a FROM t WHERE a IS NULL AND b IS NOT NULL");
  EXPECT_EQ(stmt.where->ToString(),
            "((a IS NULL) AND (b IS NOT NULL))");
}

TEST(ParserTest, Aggregates) {
  SelectStatement stmt = MustParse(
      "SELECT count(*), sum(a), avg(b), min(c), max(d), count(DISTINCT e) "
      "FROM t");
  EXPECT_EQ(stmt.items[0].expr->type, AstExprType::kFunction);
  EXPECT_EQ(stmt.items[0].expr->func_name, "count");
  EXPECT_EQ(stmt.items[5].expr->distinct_arg, true);
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  SelectStatement stmt = MustParse(
      "SELECT a, count(*) AS c FROM t GROUP BY a HAVING count(*) > 2 "
      "ORDER BY c DESC, a ASC LIMIT 10");
  EXPECT_EQ(stmt.group_by.size(), 1u);
  EXPECT_NE(stmt.having, nullptr);
  ASSERT_EQ(stmt.order_by.size(), 2u);
  EXPECT_FALSE(stmt.order_by[0].asc);
  EXPECT_TRUE(stmt.order_by[1].asc);
  EXPECT_EQ(stmt.limit, 10);
}

TEST(ParserTest, JoinOnFoldedIntoWhere) {
  SelectStatement stmt = MustParse(
      "SELECT t.a FROM t JOIN u ON t.id = u.id WHERE t.b = 1");
  EXPECT_EQ(stmt.from.size(), 2u);
  // ON condition conjoined with WHERE.
  EXPECT_EQ(stmt.where->ToString(), "((t.b = 1) AND (t.id = u.id))");
}

TEST(ParserTest, InnerJoinKeyword) {
  SelectStatement stmt =
      MustParse("SELECT t.a FROM t INNER JOIN u ON t.id = u.id");
  EXPECT_EQ(stmt.from.size(), 2u);
  EXPECT_NE(stmt.where, nullptr);
}

TEST(ParserTest, DistinctFlag) {
  EXPECT_TRUE(MustParse("SELECT DISTINCT a FROM t").distinct);
  EXPECT_FALSE(MustParse("SELECT a FROM t").distinct);
}

TEST(ParserTest, DateLiteralAndDateColumn) {
  SelectStatement stmt = MustParse(
      "SELECT t.date FROM t WHERE t.date = DATE '2016-03-15' AND date = "
      "'2016-03-16'");
  // DATE 'literal' becomes a date value; bare `date` is a column.
  EXPECT_NE(stmt.where->ToString().find("2016-03-15"), std::string::npos);
  EXPECT_EQ(stmt.items[0].expr->column, "date");
}

TEST(ParserTest, NegativeNumbersFold) {
  SelectStatement stmt = MustParse("SELECT a FROM t WHERE a = -5");
  EXPECT_EQ(stmt.where->ToString(), "(a = -5)");
}

TEST(ParserTest, TrailingSemicolonOk) {
  EXPECT_TRUE(Parser::Parse("SELECT a FROM t;").ok());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parser::Parse("").ok());
  EXPECT_FALSE(Parser::Parse("SELECT").ok());
  EXPECT_FALSE(Parser::Parse("SELECT a").ok()) << "missing FROM";
  EXPECT_FALSE(Parser::Parse("SELECT a FROM").ok());
  EXPECT_FALSE(Parser::Parse("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(Parser::Parse("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(Parser::Parse("SELECT a FROM t extra garbage").ok());
  EXPECT_FALSE(Parser::Parse("SELECT frob(a) FROM t").ok())
      << "unknown function";
  EXPECT_FALSE(Parser::Parse("SELECT a FROM t JOIN u").ok()) << "missing ON";
  EXPECT_FALSE(Parser::Parse("SELECT a FROM t WHERE a IN ()").ok());
  EXPECT_FALSE(Parser::Parse("SELECT a FROM t WHERE a IN (b)").ok())
      << "IN list items must be literals";
}

TEST(ParserTest, StatementToStringRoundTripParses) {
  const char* sql =
      "SELECT a, count(*) AS c FROM t, u WHERE t.id = u.id AND a > 3 "
      "GROUP BY a ORDER BY c DESC LIMIT 5";
  SelectStatement stmt = MustParse(sql);
  // Rendering must itself be parseable (stable textual form).
  EXPECT_TRUE(Parser::Parse(stmt.ToString()).ok()) << stmt.ToString();
}

TEST(ParserTest, PaperExample2Parses) {
  const char* sql =
      "SELECT call.region FROM call, package, business "
      "WHERE business.type = 'bank' AND business.region = 'R1' "
      "AND business.pnum = call.pnum AND call.date = '2016-03-15' "
      "AND call.pnum = package.pnum AND package.year = 2016 "
      "AND package.start <= '2016-03-15' AND package.end >= '2016-03-15' "
      "AND package.pid = 5";
  SelectStatement stmt = MustParse(sql);
  EXPECT_EQ(stmt.from.size(), 3u);
}

}  // namespace
}  // namespace beas
