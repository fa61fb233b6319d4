#include "maintenance/maintenance.h"

#include <cmath>

#include "common/string_util.h"

namespace beas {

void MaintenanceManager::Attach() {
  db_->RegisterWriteHook(
      [this](const std::string& table, const Row& row, bool is_insert) {
        for (AcIndex* index : catalog_->IndexesForTable(table)) {
          if (is_insert) {
            index->OnInsert(row);
          } else {
            index->OnDelete(row);
          }
          updates_applied_.fetch_add(1, std::memory_order_relaxed);
        }
      });
}

std::string MaintenanceManager::Adjustment::ToString() const {
  return StringPrintf("%s: declared N=%llu observed=%llu -> suggest N=%llu%s",
                      constraint_name.c_str(),
                      static_cast<unsigned long long>(declared_n),
                      static_cast<unsigned long long>(observed_max),
                      static_cast<unsigned long long>(suggested_n),
                      violated ? " [VIOLATED]" : "");
}

std::vector<MaintenanceManager::Adjustment>
MaintenanceManager::RevalidateAndSuggest(double headroom) const {
  std::vector<Adjustment> out;
  for (const AccessConstraint& c : catalog_->schema().constraints()) {
    const AcIndex* index = catalog_->IndexFor(c.name);
    if (index == nullptr) continue;
    Adjustment adj;
    adj.constraint_name = c.name;
    adj.declared_n = c.limit_n;
    adj.observed_max = index->MaxBucketSize();
    adj.suggested_n = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(
               static_cast<double>(adj.observed_max) * headroom)));
    adj.violated = adj.observed_max > adj.declared_n;
    out.push_back(std::move(adj));
  }
  return out;
}

Status MaintenanceManager::RunAdjustmentCycle(double headroom,
                                              size_t* changed_out) {
  std::vector<Adjustment> changed;
  for (Adjustment& adj : RevalidateAndSuggest(headroom)) {
    if (adj.suggested_n != adj.declared_n) changed.push_back(std::move(adj));
  }
  if (changed_out != nullptr) *changed_out = changed.size();
  BEAS_RETURN_NOT_OK(ApplySuggestions(changed));
  // Scrub strictly before checkpoint: a failed scrub (unrepairable
  // corruption) must not be followed by a checkpoint that would replace
  // the last good on-disk copy with the rotted in-memory state.
  if (scrub_hook_) BEAS_RETURN_NOT_OK(scrub_hook_());
  if (checkpoint_hook_) return checkpoint_hook_();
  return Status::OK();
}

Status MaintenanceManager::ApplySuggestions(
    const std::vector<Adjustment>& adjustments) {
  for (const Adjustment& adj : adjustments) {
    BEAS_RETURN_NOT_OK(
        catalog_->AdjustLimit(adj.constraint_name, adj.suggested_n));
  }
  return Status::OK();
}

}  // namespace beas
