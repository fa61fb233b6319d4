#include "sql/canonical_template.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sql/sql_template.h"
#include "types/value.h"

namespace beas {
namespace {

// Masks raw SQL and canonicalizes it; test helper for the common pipeline.
CanonicalizedTemplate Canon(const std::string& sql) {
  Result<SqlTemplate> masked = MaskSqlLiterals(sql);
  EXPECT_TRUE(masked.ok()) << masked.status().ToString();
  return CanonicalizeTemplate(*masked);
}

std::string CanonText(const std::string& sql) { return Canon(sql).tmpl.text; }

TEST(CanonicalTemplateTest, ReorderedConjunctsShareOneTemplate) {
  std::string a = "SELECT t.x FROM t WHERE t.a = 1 AND t.b = 2";
  std::string b = "SELECT t.x FROM t WHERE t.b = 2 AND t.a = 1";
  EXPECT_EQ(CanonText(a), CanonText(b));

  // Parameters follow their conjuncts through the sort: both spellings
  // must map ordinal 0 to the t.a literal and ordinal 1 to the t.b one.
  CanonicalizedTemplate ca = Canon(a);
  CanonicalizedTemplate cb = Canon(b);
  ASSERT_EQ(ca.tmpl.params.size(), 2u);
  EXPECT_EQ(ca.tmpl.params, cb.tmpl.params);
  EXPECT_EQ(ca.tmpl.params[0], Value::Int64(1));
  EXPECT_EQ(ca.tmpl.params[1], Value::Int64(2));
  EXPECT_TRUE(cb.changed);
}

TEST(CanonicalTemplateTest, EqualityOrientedParameterLast) {
  std::string a = "SELECT t.x FROM t WHERE 7 = t.a";
  std::string b = "SELECT t.x FROM t WHERE t.a = 7";
  CanonicalizedTemplate ca = Canon(a);
  EXPECT_TRUE(ca.changed);
  EXPECT_EQ(ca.tmpl.text, CanonText(b));
  ASSERT_EQ(ca.tmpl.params.size(), 1u);
  EXPECT_EQ(ca.tmpl.params[0], Value::Int64(7));

  // Orientation composes with the conjunct sort.
  EXPECT_EQ(CanonText("SELECT t.x FROM t WHERE 'v' = t.b AND t.a = 1"),
            CanonText("SELECT t.x FROM t WHERE t.a = 1 AND t.b = 'v'"));
}

TEST(CanonicalTemplateTest, EqualityWithMarksOnBothSidesIsNotOriented) {
  // '? = t.a + ?' must not be swapped into 't.a + ? = ?': that reorders
  // the '?' appearance without permuting params, so rendering would bind
  // 5 and 3 to the wrong marks — and the result would share a cache key
  // with the genuinely different query spelled 't.a + ? = ?'.
  CanonicalizedTemplate c = Canon("SELECT t.x FROM t WHERE 5 = t.a + 3");
  EXPECT_FALSE(c.changed);
  EXPECT_EQ(c.tmpl.text, "SELECT t.x FROM t WHERE ? = t.a + ?");
  ASSERT_EQ(c.tmpl.params.size(), 2u);
  EXPECT_EQ(c.tmpl.params[0], Value::Int64(5));
  EXPECT_EQ(c.tmpl.params[1], Value::Int64(3));

  // The untouched conjunct still travels correctly through the conjunct
  // sort: rendering the canonical form must reproduce the original
  // literal bindings, not just an internally consistent permutation.
  CanonicalizedTemplate s =
      Canon("SELECT t.x FROM t WHERE t.b = 2 AND 5 = t.a + 3");
  EXPECT_TRUE(s.changed);
  ASSERT_EQ(s.tmpl.params.size(), 3u);
  Result<std::string> rendered = RenderTemplate(s.tmpl);
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_NE(rendered->find("5 = t.a + 3"), std::string::npos) << *rendered;
  EXPECT_NE(rendered->find("t.b = 2"), std::string::npos) << *rendered;
}

TEST(CanonicalTemplateTest, FromListSortedByTableThenAlias) {
  std::string a = "SELECT a.x, b.y FROM b, a WHERE a.k = b.k";
  std::string b = "SELECT a.x, b.y FROM a, b WHERE a.k = b.k";
  EXPECT_EQ(CanonText(a), CanonText(b));
  EXPECT_TRUE(Canon(a).changed);

  // Aliases sort after the table name; the alias spelling is preserved.
  std::string c = "SELECT u.x, v.x FROM t v, t u WHERE u.k = v.k";
  CanonicalizedTemplate cc = Canon(c);
  EXPECT_TRUE(cc.changed);
  EXPECT_EQ(cc.tmpl.text, CanonText("SELECT u.x, v.x FROM t u, t v "
                                    "WHERE u.k = v.k"));
}

TEST(CanonicalTemplateTest, CanonicalFormIsAFixedPoint) {
  std::vector<std::string> queries = {
      "SELECT t.x FROM t WHERE t.a = 1 AND t.b = 2",
      "SELECT a.x, b.y FROM a, b WHERE a.k = b.k AND b.v = 'z'",
      "SELECT t.x FROM t WHERE t.a = 1 GROUP BY t.x ORDER BY t.x LIMIT 5",
  };
  for (const std::string& q : queries) {
    CanonicalizedTemplate once = Canon(q);
    CanonicalizedTemplate twice = CanonicalizeTemplate(once.tmpl);
    EXPECT_FALSE(twice.changed) << q;
    EXPECT_EQ(twice.tmpl.text, once.tmpl.text) << q;
    EXPECT_EQ(twice.tmpl.params, once.tmpl.params) << q;
  }
}

TEST(CanonicalTemplateTest, TailClausesAreKeptVerbatim) {
  std::string q = "SELECT t.x FROM t WHERE t.b = 2 AND t.a = 1 "
                  "GROUP BY t.x HAVING t.x > 0 ORDER BY t.x DESC LIMIT 3";
  CanonicalizedTemplate c = Canon(q);
  EXPECT_TRUE(c.changed);
  EXPECT_NE(c.tmpl.text.find("GROUP BY t.x HAVING t.x > ? "
                             "ORDER BY t.x DESC LIMIT ?"),
            std::string::npos);
  // Tail parameters keep their appearance-order slots after the permuted
  // WHERE parameters.
  ASSERT_EQ(c.tmpl.params.size(), 4u);
  EXPECT_EQ(c.tmpl.params[0], Value::Int64(1));  // t.a = ?
  EXPECT_EQ(c.tmpl.params[1], Value::Int64(2));  // t.b = ?
  EXPECT_EQ(c.tmpl.params[2], Value::Int64(0));  // HAVING t.x > ?
  EXPECT_EQ(c.tmpl.params[3], Value::Int64(3));  // LIMIT ?
}

TEST(CanonicalTemplateTest, UnrecognizedShapesComeBackUnchanged) {
  std::vector<std::string> bail = {
      // Top-level OR: reordering is still sound but the fragment stops at
      // pure conjunctions — conservatively untouched.
      "SELECT t.x FROM t WHERE t.a = 1 OR t.b = 2",
      "SELECT t.x FROM t WHERE t.a BETWEEN 1 AND 2",
      "SELECT a.x FROM a JOIN b ON a.k = b.k",
      "SELECT t.x FROM t WHERE t.a = 1 UNION SELECT t.y FROM t",
      "INSERT INTO t VALUES (1, 2)",
      // '*' projection: FROM order fixes column order, so sorting FROM
      // would change the answer shape.
      "SELECT * FROM b, a",
  };
  for (const std::string& q : bail) {
    Result<SqlTemplate> masked = MaskSqlLiterals(q);
    ASSERT_TRUE(masked.ok()) << q;
    CanonicalizedTemplate c = CanonicalizeTemplate(*masked);
    EXPECT_FALSE(c.changed) << q;
    EXPECT_EQ(c.tmpl.text, masked->text) << q;
  }
}

TEST(CanonicalTemplateTest, StarProjectionStillSortsConjuncts) {
  // With a single FROM item there is nothing to sort in FROM, and the
  // conjunct sort is always shape-preserving — '*' does not block it.
  EXPECT_EQ(CanonText("SELECT * FROM t WHERE t.b = 2 AND t.a = 1"),
            CanonText("SELECT * FROM t WHERE t.a = 1 AND t.b = 2"));
}

TEST(CanonicalTemplateTest, RenderRoundTripsThroughTheMasker) {
  // RenderTemplate is the reference the serving path's direct binding of
  // canonical templates is tested against: rendering a canonical template
  // and re-masking it must reproduce text and parameters exactly.
  std::vector<std::string> queries = {
      "SELECT t.x FROM t WHERE t.b = 'it''s' AND t.a = 1",
      "SELECT t.x FROM t WHERE 2.5 = t.a AND t.b = 'v'",
      "SELECT a.x, b.y FROM b, a WHERE a.k = b.k AND 9 = b.v",
  };
  for (const std::string& q : queries) {
    CanonicalizedTemplate c = Canon(q);
    ASSERT_TRUE(c.changed) << q;
    Result<std::string> rendered = RenderTemplate(c.tmpl);
    ASSERT_TRUE(rendered.ok()) << q << ": " << rendered.status().ToString();
    Result<SqlTemplate> remasked = MaskSqlLiterals(*rendered);
    ASSERT_TRUE(remasked.ok()) << *rendered;
    EXPECT_EQ(remasked->text, c.tmpl.text) << q;
    EXPECT_EQ(remasked->params, c.tmpl.params) << q;
  }
}

TEST(CanonicalTemplateTest, ParamOrderDependsOnTheTextAlone) {
  // Two instances of one masked text, different values and types of
  // value: the permutation is the same, and each instance's parameters
  // travel through it to the same canonical slots.
  std::string a = "SELECT t.x FROM u, t WHERE 'p' = t.b AND t.a = 1 "
                  "AND u.k = t.k LIMIT 4";
  std::string b = "SELECT t.x FROM u, t WHERE 'q''r' = t.b AND t.a = 99 "
                  "AND u.k = t.k LIMIT 7";
  CanonicalizedTemplate ca = Canon(a);
  CanonicalizedTemplate cb = Canon(b);
  ASSERT_TRUE(ca.changed);
  EXPECT_EQ(ca.tmpl.text, cb.tmpl.text);
  EXPECT_EQ(ca.param_order, cb.param_order);
  EXPECT_EQ(ca.param_order, (std::vector<size_t>{1, 0, 2}));
  EXPECT_EQ(cb.tmpl.params,
            (std::vector<Value>{Value::Int64(99), Value::String("q'r"),
                                Value::Int64(7)}));

  // The value-free half agrees with the full canonicalization, and
  // binding it to either instance reproduces that instance's result.
  CanonicalizedTemplate form = CanonicalizeTemplateText(MaskSqlLiterals(a)->text);
  EXPECT_TRUE(form.tmpl.params.empty());
  EXPECT_EQ(form.tmpl.text, ca.tmpl.text);
  EXPECT_EQ(form.param_order, ca.param_order);
  CanonicalizedTemplate bound = ApplyCanonicalForm(form, *MaskSqlLiterals(b));
  EXPECT_EQ(bound.tmpl.text, cb.tmpl.text);
  EXPECT_EQ(bound.tmpl.params, cb.tmpl.params);
  EXPECT_EQ(bound.param_order, cb.param_order);

  // An unchanged form carries no permutation.
  CanonicalizedTemplate same = Canon("SELECT t.x FROM t WHERE t.a = 1");
  EXPECT_FALSE(same.changed);
  EXPECT_TRUE(same.param_order.empty());
}

TEST(CanonicalTemplateTest, BareMarkNeverReachesTheCanonicalizer) {
  // A bare '?' in the source SQL is a parse error at the masker, so every
  // masked text has exactly one parameter per mark and the canonical
  // form's permutation always fits its instance.
  std::string bare = "SELECT t.x FROM t WHERE ? = t.a AND t.b = 2";
  EXPECT_EQ(MaskSqlLiterals(bare).status().code(), StatusCode::kParseError);
  Result<SqlTemplate> full =
      MaskSqlLiterals("SELECT t.x FROM t WHERE 7 = t.a AND t.b = 2");
  ASSERT_TRUE(full.ok());
  CanonicalizedTemplate form = CanonicalizeTemplateText(full->text);
  ASSERT_TRUE(form.changed);
  EXPECT_EQ(form.param_order.size(), full->params.size());
  EXPECT_TRUE(ApplyCanonicalForm(form, *full).changed);
}

TEST(CanonicalTemplateTest, RenderRejectsUnspeakableParameters) {
  SqlTemplate t;
  t.text = "SELECT t.x FROM t WHERE t.a = ?";
  t.params = {Value::Double(1e308 * 10)};  // +inf: no literal spelling
  EXPECT_FALSE(RenderTemplate(t).ok());

  SqlTemplate arity;
  arity.text = "SELECT t.x FROM t WHERE t.a = ? AND t.b = ?";
  arity.params = {Value::Int64(1)};
  EXPECT_FALSE(RenderTemplate(arity).ok());
}

}  // namespace
}  // namespace beas
