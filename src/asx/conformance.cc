#include "asx/conformance.h"

#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace beas {

std::string ConformanceReport::ToString() const {
  std::string out = StringPrintf(
      "%s: %s (declared N=%llu, observed max=%llu over %llu keys)",
      constraint_name.c_str(), conforms ? "conforms" : "VIOLATED",
      static_cast<unsigned long long>(declared_n),
      static_cast<unsigned long long>(observed_max),
      static_cast<unsigned long long>(num_keys));
  for (const std::string& v : sample_violations) {
    out += "\n  violating X-value: " + v;
  }
  return out;
}

Result<ConformanceReport> VerifyConformance(
    const TableHeap& heap, const AccessConstraint& constraint) {
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> x_cols,
                        constraint.ResolveX(heap.schema()));
  BEAS_ASSIGN_OR_RETURN(std::vector<size_t> y_cols,
                        constraint.ResolveY(heap.schema()));

  std::unordered_map<ValueVec,
                     std::unordered_set<ValueVec, ValueVecHash, ValueVecEq>,
                     ValueVecHash, ValueVecEq>
      groups;
  for (auto it = heap.Begin(); it.Valid(); it.Next()) {
    ValueVec key;
    key.reserve(x_cols.size());
    bool null_key = false;
    for (size_t c : x_cols) {
      key.push_back(it.value(c));
      null_key |= key.back().is_null();
    }
    if (null_key) continue;
    ValueVec y;
    y.reserve(y_cols.size());
    for (size_t c : y_cols) y.push_back(it.value(c));
    groups[std::move(key)].insert(std::move(y));
  }

  ConformanceReport report;
  report.constraint_name =
      constraint.name.empty() ? constraint.ToString() : constraint.name;
  report.declared_n = constraint.limit_n;
  report.num_keys = groups.size();
  for (const auto& [key, ys] : groups) {
    report.observed_max = std::max<uint64_t>(report.observed_max, ys.size());
    if (ys.size() > constraint.limit_n &&
        report.sample_violations.size() < 5) {
      report.sample_violations.push_back(ValueVecToString(key) + " has " +
                                         std::to_string(ys.size()) +
                                         " distinct Y-values");
    }
  }
  report.conforms = report.observed_max <= constraint.limit_n;
  return report;
}

Result<std::vector<ConformanceReport>> VerifySchemaConformance(
    const Database& db, const AccessSchema& schema) {
  std::vector<ConformanceReport> reports;
  for (const AccessConstraint& c : schema.constraints()) {
    BEAS_ASSIGN_OR_RETURN(TableInfo * table, db.catalog().GetTable(c.table));
    BEAS_ASSIGN_OR_RETURN(ConformanceReport report,
                          VerifyConformance(*table->heap(), c));
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace beas
