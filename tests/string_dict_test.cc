// Unit tests for the per-table string dictionary: byte-exact interning
// (embedded NULs, empty strings), code/hash round trips, the
// dictionary-backed Value representation's equality/hash consistency
// with the inline representation, TableHeap's interning insert paths, and
// bounded string ordering over a dictionary interned out of byte order.

#include <gtest/gtest.h>

#include "asx/access_schema.h"
#include "bounded/beas_session.h"
#include "engine/database.h"
#include "storage/string_dict.h"
#include "storage/table_heap.h"
#include "test_util.h"

namespace beas {
namespace {

using testing_util::I;
using testing_util::S;

TEST(StringDictTest, InternAssignsStableDenseCodesFirstAppearance) {
  StringDict dict;
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("b"), 1u);
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("c"), 2u);
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.str(0), "a");
  EXPECT_EQ(dict.str(1), "b");
  EXPECT_EQ(dict.str(2), "c");
}

TEST(StringDictTest, SurvivesGrowthWithStableReferences) {
  StringDict dict;
  const std::string& first = dict.str(dict.Intern("first"));
  std::vector<uint32_t> codes;
  for (int i = 0; i < 1000; ++i) {
    codes.push_back(dict.Intern("value_" + std::to_string(i)));
  }
  EXPECT_EQ(first, "first") << "deque storage keeps references stable";
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(dict.str(codes[i]), "value_" + std::to_string(i));
    EXPECT_EQ(dict.Intern("value_" + std::to_string(i)), codes[i]);
  }
}

TEST(StringDictTest, ByteExactForEmbeddedNulAndEmptyStrings) {
  // Dictionary round-trips are byte-exact, not C-string-exact: "a\0b",
  // "a\0c", "a" and "" are four distinct entries.
  StringDict dict;
  std::string nul_b("a\0b", 3);
  std::string nul_c("a\0c", 3);
  uint32_t c1 = dict.Intern(nul_b);
  uint32_t c2 = dict.Intern(nul_c);
  uint32_t c3 = dict.Intern("a");
  uint32_t c4 = dict.Intern("");
  EXPECT_EQ(dict.size(), 4u);
  EXPECT_NE(c1, c2);
  EXPECT_NE(c1, c3);
  EXPECT_NE(c3, c4);
  EXPECT_EQ(dict.str(c1), nul_b);
  EXPECT_EQ(dict.str(c1).size(), 3u);
  EXPECT_EQ(dict.str(c4), "");
  EXPECT_EQ(dict.Intern(nul_b), c1);
  EXPECT_EQ(dict.Intern(std::string()), c4);
}

TEST(StringDictTest, FindDoesNotInsert) {
  StringDict dict;
  uint32_t code = dict.Intern("present");
  EXPECT_EQ(dict.Find("present"), static_cast<int64_t>(code));
  EXPECT_EQ(dict.Find("absent"), -1);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(StringDictTest, FindWithHashMatchesAndSkipsByteHashing) {
  StringDict dict;
  uint32_t code = dict.Intern("needle");
  uint64_t h = HashString("needle");
  uint64_t before = tls_hash_string_calls;
  EXPECT_EQ(dict.FindWithHash("needle", h), static_cast<int64_t>(code));
  EXPECT_EQ(dict.hash(code), h);
  EXPECT_EQ(tls_hash_string_calls, before);
}

// ---------------------------------------------------------------------------
// Dictionary-backed Values vs inline Values.
// ---------------------------------------------------------------------------

TEST(DictValueTest, EqualityHashAndRenderingMatchInline) {
  StringDict dict;
  for (const std::string& s :
       {std::string("plain"), std::string(""), std::string("a\0b", 3),
        std::string("longer string with spaces and \xc3\xa9 bytes")}) {
    Value inline_v = Value::String(s);
    Value dict_v = Value::DictString(&dict, dict.Intern(s));
    EXPECT_EQ(dict_v.type(), TypeId::kString);
    EXPECT_EQ(dict_v.AsString(), s);
    EXPECT_TRUE(dict_v == inline_v);
    EXPECT_TRUE(inline_v == dict_v);
    EXPECT_EQ(dict_v.Compare(inline_v), 0);
    EXPECT_EQ(dict_v.Hash(), inline_v.Hash())
        << "hash must be representation-independent";
    EXPECT_EQ(dict_v.ToString(), inline_v.ToString());
    EXPECT_EQ(dict_v.ToCsv(), inline_v.ToCsv());
  }
}

TEST(DictValueTest, EmbeddedNulValuesStayDistinct) {
  // The historical trap the dictionary must not reintroduce: values equal
  // as C strings but different as byte strings.
  StringDict dict;
  Value a = Value::DictString(&dict, dict.Intern(std::string("x\0y", 3)));
  Value b = Value::DictString(&dict, dict.Intern(std::string("x\0z", 3)));
  Value c = Value::DictString(&dict, dict.Intern("x"));
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_LT(a.Compare(b), 0);
  // Inline twins agree on every verdict.
  EXPECT_TRUE(a == Value::String(std::string("x\0y", 3)));
  EXPECT_FALSE(a == Value::String(std::string("x\0z", 3)));
}

TEST(DictValueTest, SameDictEqualityIsCodeCompare) {
  StringDict dict;
  Value a = Value::DictString(&dict, dict.Intern("alpha"));
  Value b = Value::DictString(&dict, dict.Intern("beta"));
  Value a2 = Value::DictString(&dict, dict.Intern("alpha"));
  EXPECT_TRUE(a == a2);
  EXPECT_FALSE(a == b);
  // Cross-dictionary values of equal bytes compare equal (byte fallback).
  StringDict other;
  Value a3 = Value::DictString(&other, other.Intern("alpha"));
  EXPECT_TRUE(a == a3);
  EXPECT_EQ(a.Hash(), a3.Hash());
}

TEST(DictValueTest, OrderingDecodesBytesNotCodes) {
  // Codes are first-appearance; interning "zz" before "aa" must not make
  // "zz" order first.
  StringDict dict;
  Value zz = Value::DictString(&dict, dict.Intern("zz"));
  Value aa = Value::DictString(&dict, dict.Intern("aa"));
  EXPECT_LT(zz.dict_code(), aa.dict_code());
  EXPECT_GT(zz.Compare(aa), 0);
  EXPECT_LT(aa.Compare(zz), 0);
}

// ---------------------------------------------------------------------------
// TableHeap interning.
// ---------------------------------------------------------------------------

TEST(TableHeapDictTest, InsertInternsStringsAndSharesCodes) {
  TableHeap heap(Schema({{"k", TypeId::kString}, {"n", TypeId::kInt64}}));
  ASSERT_NE(heap.dict(), nullptr);
  ASSERT_TRUE(heap.Insert({S("dup"), I(1)}).ok());
  ASSERT_TRUE(heap.Insert({S("dup"), I(2)}).ok());
  ASSERT_TRUE(heap.Insert({S("other"), I(3)}).ok());
  EXPECT_EQ(heap.dict()->size(), 2u) << "duplicate strings intern once";
  Value v0 = heap.ValueAt(0, 0);
  Value v1 = heap.ValueAt(1, 0);
  EXPECT_EQ(v0.dict(), heap.dict());
  EXPECT_EQ(v0.dict_code(), v1.dict_code());
  EXPECT_EQ(v0.AsString(), "dup");
  // NULLs and non-strings pass through untouched.
  ASSERT_TRUE(heap.Insert({Value::Null(), I(4)}).ok());
  EXPECT_TRUE(heap.ValueAt(3, 0).is_null());
}

TEST(TableHeapDictTest, BatchInsertInternsAndCountsLikeRowInserts) {
  TableHeap heap(Schema({{"k", TypeId::kString}}));
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({S("s" + std::to_string(i % 7))});
  heap.InsertBatchUnchecked(std::move(rows));
  EXPECT_EQ(heap.NumRows(), 100u);
  ASSERT_NE(heap.dict(), nullptr);
  EXPECT_EQ(heap.dict()->size(), 7u);
}

TEST(TableHeapDictTest, DictExactlyWhenTheSchemaHasAStringColumn) {
  TableHeap numeric(Schema({{"a", TypeId::kInt64}, {"b", TypeId::kDouble}}));
  EXPECT_EQ(numeric.dict(), nullptr);

  TableHeap mixed(Schema({{"a", TypeId::kInt64}, {"k", TypeId::kString}}));
  ASSERT_NE(mixed.dict(), nullptr);
  ASSERT_TRUE(mixed.Insert({I(1), S("interned")}).ok());
  EXPECT_EQ(mixed.ValueAt(0, 1).dict(), mixed.dict())
      << "every STRING column is dictionary-coded";
}

TEST(TableHeapDictTest, DeleteKeepsDictEntriesAndReinsertReusesCode) {
  Database db;
  testing_util::MakeTable(&db, "t", Schema({{"k", TypeId::kString}}),
                          {{S("keep")}, {S("gone")}});
  TableHeap* heap = (*db.catalog()->GetTable("t"))->heap();
  ASSERT_TRUE(db.DeleteWhereEquals("t", {S("gone")}).ok());
  EXPECT_EQ(heap->dict()->size(), 2u) << "dictionary is append-only";
  ASSERT_TRUE(db.Insert("t", {S("gone")}).ok());
  EXPECT_EQ(heap->dict()->size(), 2u) << "re-insert reuses the old code";
}

// ---------------------------------------------------------------------------
// String ordering over first-appearance codes: every ordering consumer of
// the bounded path compares bytes, so its answers equal the conventional
// engine's whatever order the strings were interned in.
// ---------------------------------------------------------------------------

TEST(OutOfOrderDictTest, BoundedStringOrderingMatchesConventional) {
  Database db;
  ASSERT_TRUE(db.CreateTable("w", Schema({{"k", TypeId::kInt64},
                                          {"name", TypeId::kString},
                                          {"tag", TypeId::kString}}))
                  .ok());
  // Names interned in descending byte order (code order is the reverse
  // of byte order), plus an empty string and a NULL.
  const char* names[] = {"zulu", "yankee", "mike", "lima", "kilo", "delta",
                         "charlie", "bravo", "alpha", ""};
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({I(1 + i % 2), S(names[i]), S(i % 3 == 0 ? "t" : "e")});
  }
  rows.push_back({I(1), Value::Null(), S("t")});
  ASSERT_TRUE(db.InsertBatch("w", std::move(rows)).ok());
  const StringDict* dict = (*db.catalog()->GetTable("w"))->heap()->dict();
  ASSERT_LT(dict->Find("zulu"), dict->Find("alpha"));
  AsCatalog catalog(&db);
  ASSERT_TRUE(catalog.Register({"wk", "w", {"k"}, {"name", "tag"}, 16}).ok());
  BeasSession session(&db, &catalog);

  const char* queries[] = {
      "SELECT w.name FROM w WHERE w.k = 1 AND w.name < 'lima' "
      "ORDER BY w.name",
      "SELECT w.name FROM w WHERE w.k = 2 AND w.name <= 'lima' "
      "ORDER BY w.name DESC",
      "SELECT w.name FROM w WHERE w.k = 1 AND w.name > 'c' AND "
      "w.name >= 'delta' ORDER BY w.name",
      "SELECT w.name FROM w WHERE w.k IN (1, 2) AND "
      "w.name BETWEEN 'bravo' AND 'mike' ORDER BY w.name",
      "SELECT w.name, w.tag FROM w WHERE w.k IN (1, 2) "
      "ORDER BY w.name DESC, w.tag LIMIT 4",
      "SELECT w.name FROM w WHERE w.k IN (1, 2) AND w.name < w.tag "
      "ORDER BY w.name",
      "SELECT min(w.name) AS lo, max(w.name) AS hi FROM w "
      "WHERE w.k IN (1, 2)",
      "SELECT w.tag, min(w.name) AS lo, max(w.name) AS hi FROM w "
      "WHERE w.k IN (1, 2) GROUP BY w.tag ORDER BY w.tag",
  };
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    auto coverage = session.Check(sql);
    ASSERT_TRUE(coverage.ok()) << coverage.status().ToString();
    ASSERT_TRUE(coverage->covered) << coverage->reason;
    auto conventional = db.Query(sql);
    ASSERT_TRUE(conventional.ok()) << conventional.status().ToString();
    ASSERT_FALSE(conventional->rows.empty());
    auto bounded = session.ExecuteBounded(sql);
    ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
    ASSERT_EQ(bounded->rows.size(), conventional->rows.size());
    for (size_t r = 0; r < bounded->rows.size(); ++r) {
      EXPECT_EQ(RowToString(bounded->rows[r]),
                RowToString(conventional->rows[r]))
          << "row " << r;
    }
  }
}

}  // namespace
}  // namespace beas
