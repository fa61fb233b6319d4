// Bounded mutation test of the SQL entry points. A fixed-seed loop applies
// random byte edits (insert, delete, flip, splice) to the TLC query texts
// and sends every edited text through Parser::Parse, Database::Bind and
// BeasService::Query (kAuto and kBoundedOnly) on a small TLC deployment.
// Each call must return OK or a typed error that is not kInternal; under
// the sanitizer builds a crash, a leak or undefined behaviour fails the
// run too.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "service/beas_service.h"
#include "sql/parser.h"
#include "workload/tlc_access_schema.h"
#include "workload/tlc_generator.h"
#include "workload/tlc_queries.h"
#include "workload/tlc_schema.h"

namespace beas {
namespace {

constexpr uint64_t kSeed = 20161015;
constexpr int kIterations = 4000;
constexpr int kRowsPerTable = 12;

// Hand-picked edges of the literal grammar, replayed first on every run:
// a bare mark, a non-integer LIMIT, DATE and '-' before the wrong kind of
// literal, integers past INT64, an impossible date, an open string.
const char* const kFixedCases[] = {
    "SELECT call.region FROM call WHERE call.pnum = ?",
    "SELECT call.region FROM call WHERE call.pnum = 10001 LIMIT 2.5",
    "SELECT call.region FROM call WHERE call.date = DATE 5",
    "SELECT call.region FROM call WHERE call.pnum IN (-'a')",
    "SELECT call.region FROM call WHERE call.pnum = 99999999999999999999",
    "SELECT call.region FROM call WHERE call.pnum = -9223372036854775807 - 1",
    "SELECT call.region FROM call WHERE call.date = '2016-13-45'",
    "SELECT call.region FROM call WHERE 'x",
};

// Characters SQL's grammar turns on, favoured over uniform random bytes.
const char kAlphabet[] = "'?-.0123456789()=<>!,;*%/+ \n_aAzZ";

std::string Mutate(const std::vector<std::string>& corpus,
                   std::mt19937_64* rng) {
  auto pick = [&](size_t n) { return n == 0 ? 0 : (*rng)() % n; };
  std::string s = corpus[pick(corpus.size())];
  int edits = 1 + static_cast<int>(pick(4));
  for (int e = 0; e < edits; ++e) {
    size_t pos = pick(s.size() + 1);
    switch (pick(4)) {
      case 0: {  // insert one byte
        char c = pick(4) == 0 ? static_cast<char>(pick(256))
                              : kAlphabet[pick(sizeof(kAlphabet) - 1)];
        s.insert(s.begin() + pos, c);
        break;
      }
      case 1:  // delete a short span
        if (pos < s.size()) s.erase(pos, 1 + pick(4));
        break;
      case 2:  // flip one bit
        if (pos < s.size()) s[pos] ^= static_cast<char>(1 << pick(8));
        break;
      default: {  // splice in a piece of another query
        const std::string& other = corpus[pick(corpus.size())];
        size_t from = pick(other.size());
        s.insert(pos, other.substr(from, 1 + pick(24)));
        break;
      }
    }
  }
  return s;
}

class SqlMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A handful of rows per TLC table, copied from a generated instance:
    // enough for every query shape to run, small enough that a mutation
    // that drops a join predicate stays a small cross product.
    Database source;
    TlcOptions tlc;
    tlc.scale_factor = 0.01;
    ASSERT_TRUE(GenerateTlc(&source, tlc).ok());
    ServiceOptions options;
    options.num_workers = 1;
    service_ = std::make_unique<BeasService>(options);
    ASSERT_TRUE(CreateTlcTables(service_->db()).ok());
    for (const std::string& table : TlcTableNames()) {
      Result<Schema> schema = TlcTableSchema(table);
      ASSERT_TRUE(schema.ok());
      std::string columns;
      for (const Column& c : schema->columns()) {
        columns += (columns.empty() ? "" : ", ") + table + "." + c.name;
      }
      Result<QueryResult> rows =
          source.Query("SELECT " + columns + " FROM " + table + " LIMIT " +
                       std::to_string(kRowsPerTable));
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      for (Row& row : rows->rows) {
        ASSERT_TRUE(service_->Insert(table, std::move(row)).ok()) << table;
      }
    }
    ASSERT_TRUE(RegisterTlcAccessSchema(service_->catalog()).ok());
  }

  // Runs `sql` through every entry point; returns the number of calls
  // that answered OK.
  int RunAll(const std::string& sql) {
    int ok = 0;
    auto check = [&](const Status& st, const char* where) {
      EXPECT_NE(st.code(), StatusCode::kInternal)
          << where << " on " << ::testing::PrintToString(sql) << ": "
          << st.ToString();
      ok += st.ok();
    };
    check(Parser::Parse(sql).status(), "Parser::Parse");
    {
      Database::ReadScope lock(service_->db());
      check(service_->db()->Bind(sql).status(), "Database::Bind");
    }
    for (QueryMode mode : {QueryMode::kAuto, QueryMode::kBoundedOnly}) {
      check(service_->Query({sql, mode}).status(), "BeasService::Query");
    }
    return ok;
  }

  std::unique_ptr<BeasService> service_;
};

TEST_F(SqlMutationTest, EditedQueriesReturnOkOrATypedError) {
  for (const char* sql : kFixedCases) RunAll(sql);
  std::vector<std::string> corpus;
  for (const TlcQuery& q : TlcQueries()) corpus.push_back(q.sql);
  // The unedited corpus parses, binds and runs (kBoundedOnly refuses the
  // one uncovered query).
  for (const std::string& sql : corpus) EXPECT_GE(RunAll(sql), 3) << sql;

  std::mt19937_64 rng(kSeed);
  int answered = 0;
  for (int i = 0; i < kIterations; ++i) {
    answered += RunAll(Mutate(corpus, &rng)) > 0;
  }
  // Not every edit breaks the text: some still reach execution.
  EXPECT_GT(answered, kIterations / 20);
}

}  // namespace
}  // namespace beas
