#ifndef BEAS_TESTS_TEST_UTIL_H_
#define BEAS_TESTS_TEST_UTIL_H_

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "binder/bound_query.h"
#include "common/shard_config.h"
#include "engine/database.h"
#include "expr/evaluator.h"
#include "types/tuple.h"

namespace beas {
namespace testing_util {

/// RAII shard-count override for tests that sweep BEAS_SHARDS: set the
/// process override (before the tables under test are constructed),
/// restore on exit.
class ShardOverrideGuard {
 public:
  explicit ShardOverrideGuard(size_t shards) : saved_(ShardCountOverride()) {
    ShardCountOverride() = shards;
  }
  ~ShardOverrideGuard() { ShardCountOverride() = saved_; }

 private:
  size_t saved_;
};

/// Unwraps `result` for a test helper that must return a value, where a
/// fatal ASSERT cannot be used. A failed Result throws; gtest reports the
/// exception, `what` and the status included, as a failure of the running
/// test and ends only that test.
template <typename T>
T ValueOrThrow(Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw std::runtime_error(what + ": " + result.status().ToString());
  }
  return std::move(*result);
}

/// Shorthand row builders.
inline Value I(int64_t v) { return Value::Int64(v); }
inline Value D(double v) { return Value::Double(v); }
inline Value S(const std::string& v) { return Value::String(v); }
inline Value Dt(const std::string& v) {
  return Value::DateFromString(v).ValueOrDie();
}
inline Value N() { return Value::Null(); }

/// Appends `row` to `heap` unvalidated (TableHeap::InsertUnchecked takes
/// the row by pointer and interns it in place; tests mostly insert
/// temporaries).
inline SlotId InsertRow(TableHeap* heap, Row row) {
  return heap->InsertUnchecked(&row);
}

/// Lowercase hex of `bytes`, for pinning encoded formats byte for byte.
inline std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

/// Creates a table and inserts rows; aborts the test on failure.
inline TableInfo* MakeTable(Database* db, const std::string& name,
                            Schema schema, std::vector<Row> rows) {
  auto info = db->CreateTable(name, std::move(schema));
  if (!info.ok()) return nullptr;
  for (Row& row : rows) {
    if (!db->Insert(name, std::move(row)).ok()) return nullptr;
  }
  return info.ValueOrDie();
}

/// Brute-force reference evaluation for non-aggregate queries: cartesian
/// product of the atoms, all conjuncts as filters, then projection,
/// DISTINCT, ORDER BY and LIMIT. Deliberately simple — an independent
/// implementation to cross-check all four engines.
inline Result<std::vector<Row>> NaiveEvaluate(const BoundQuery& query) {
  if (query.HasAggregates()) {
    return Status::NotImplemented("naive evaluator covers non-aggregate only");
  }
  std::vector<Row> result;
  // Iterative cartesian product over atom snapshots.
  std::vector<std::vector<Row>> tables;
  for (const BoundAtom& atom : query.atoms) {
    tables.push_back(atom.table->heap()->Snapshot());
  }
  std::vector<size_t> idx(tables.size(), 0);
  while (true) {
    // Build the global row.
    Row row;
    for (size_t a = 0; a < tables.size(); ++a) {
      if (tables[a].empty()) break;
      const Row& part = tables[a][idx[a]];
      row.insert(row.end(), part.begin(), part.end());
    }
    bool any_empty = false;
    for (const auto& t : tables) any_empty |= t.empty();
    if (any_empty) break;

    bool pass = true;
    for (const Conjunct& c : query.conjuncts) {
      BEAS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*c.expr, row));
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (pass) {
      Row out;
      for (const OutputItem& item : query.outputs) {
        BEAS_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, row));
        out.push_back(std::move(v));
      }
      result.push_back(std::move(out));
    }

    // Advance the product iterator.
    size_t a = tables.size();
    while (a-- > 0) {
      if (++idx[a] < tables[a].size()) break;
      idx[a] = 0;
      if (a == 0) goto done;
    }
    if (tables.empty()) break;
  }
done:
  if (query.distinct) SortAndDedupRows(&result);
  if (!query.order_by.empty()) {
    std::stable_sort(result.begin(), result.end(),
                     [&query](const Row& x, const Row& y) {
                       for (const BoundOrderItem& item : query.order_by) {
                         int c = x[item.output_index].Compare(
                             y[item.output_index]);
                         if (c != 0) return item.asc ? c < 0 : c > 0;
                       }
                       return false;
                     });
  }
  if (query.limit.has_value() &&
      result.size() > static_cast<size_t>(*query.limit)) {
    result.resize(static_cast<size_t>(*query.limit));
  }
  return result;
}

}  // namespace testing_util
}  // namespace beas

#endif  // BEAS_TESTS_TEST_UTIL_H_
