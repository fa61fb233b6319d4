#include "catalog/statistics.h"

#include <unordered_set>

namespace beas {

size_t TableStats::DistinctOf(const std::string& name) const {
  for (const auto& c : columns) {
    if (c.name == name) return c.distinct_count;
  }
  return 0;
}

TableStats ComputeTableStats(const TableHeap& heap) {
  TableStats stats;
  stats.row_count = heap.NumRows();
  const Schema& schema = heap.schema();
  stats.columns.resize(schema.NumColumns());

  struct ValueHashFn {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEqFn {
    bool operator()(const Value& a, const Value& b) const { return a == b; }
  };

  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    ColumnStats& cs = stats.columns[c];
    cs.name = schema.ColumnAt(c).name;
    std::unordered_set<Value, ValueHashFn, ValueEqFn> distinct;
    bool first = true;
    for (auto it = heap.Begin(); it.Valid(); it.Next()) {
      Value v = it.value(c);
      if (v.is_null()) {
        ++cs.null_count;
        continue;
      }
      distinct.insert(v);
      if (first) {
        cs.min = v;
        cs.max = v;
        first = false;
      } else {
        if (v.Compare(cs.min) < 0) cs.min = v;
        if (v.Compare(cs.max) > 0) cs.max = v;
      }
    }
    cs.distinct_count = distinct.size();
  }
  return stats;
}

}  // namespace beas
