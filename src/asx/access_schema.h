#ifndef BEAS_ASX_ACCESS_SCHEMA_H_
#define BEAS_ASX_ACCESS_SCHEMA_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "asx/ac_index.h"
#include "asx/access_constraint.h"
#include "common/result.h"
#include "engine/database.h"

namespace beas {

/// \brief A set of access constraints over a database schema (paper §2).
class AccessSchema {
 public:
  AccessSchema() = default;

  /// Adds a constraint; auto-names it "psiK" if unnamed. Errors on a
  /// duplicate (same table/X/Y/N).
  Status Add(AccessConstraint constraint);

  const std::vector<AccessConstraint>& constraints() const {
    return constraints_;
  }

  /// Constraints defined on `table`.
  std::vector<const AccessConstraint*> ForTable(const std::string& table) const;

  /// Finds a constraint by name.
  Result<const AccessConstraint*> Find(const std::string& name) const;

  size_t size() const { return constraints_.size(); }

  std::string ToString() const;

 private:
  std::vector<AccessConstraint> constraints_;
};

/// \brief The AS Catalog metadata module (paper §3, Fig. 1): registered
/// access schema, the built indices, and their statistics.
///
/// Offline service: constraints are registered (building their modified
/// hash indices), and the catalog exposes per-index statistics "in a
/// system table" for plan generation and optimization.
class AsCatalog {
 public:
  explicit AsCatalog(Database* db) : db_(db) {}

  AsCatalog(const AsCatalog&) = delete;
  AsCatalog& operator=(const AsCatalog&) = delete;

  /// Registers a constraint and builds its index over the current data.
  Status Register(AccessConstraint constraint);

  /// Removes a constraint and drops its index.
  Status Unregister(const std::string& name);

  /// Recovery-only Register: adds `constraint` with an index restored
  /// from a checkpoint segment instead of a fresh heap walk, and fires no
  /// change listeners (recovery runs before the service serves anything,
  /// so there is nothing to invalidate — and the durability layer's own
  /// structural-logging listener must not re-log restored state). The
  /// index's constraint copy is the source of `constraint`; they arrive
  /// together from the segment. Call in original registration order so
  /// auto-naming ("psiK") and index slots line up with the pre-crash
  /// catalog.
  Status AdoptRestored(AccessConstraint constraint,
                       std::unique_ptr<AcIndex> index);

  const AccessSchema& schema() const { return schema_; }
  Database* db() { return db_; }

  /// The index for a registered constraint, or nullptr.
  AcIndex* IndexFor(const std::string& constraint_name);
  const AcIndex* IndexFor(const std::string& constraint_name) const;

  /// All indices over a given table (used by maintenance on writes).
  std::vector<AcIndex*> IndexesForTable(const std::string& table);

  /// Total approximate memory of all indices.
  uint64_t TotalIndexBytes() const;

  /// Updates the declared bound N of a registered constraint (used by the
  /// maintenance module's periodic adjustment).
  Status AdjustLimit(const std::string& name, uint64_t new_n);

  /// \brief A change to the registered access schema that affects plan
  /// validity: coverage decisions and deduced bounds derived before the
  /// change may no longer hold. Plain data writes are deliberately NOT
  /// events — AcIndex maintenance keeps existing plans valid under
  /// inserts/deletes.
  enum class ChangeKind {
    kConstraintRegistered,
    kConstraintUnregistered,
    kLimitAdjusted,
  };

  /// Listener invoked after every schema change, with the affected table
  /// (the invalidation granularity of the service plan cache) and the
  /// constraint name. Must be registered before the catalog is shared
  /// across threads; runs on the mutating thread.
  using ChangeListener = std::function<void(
      ChangeKind kind, const std::string& table, const std::string& name)>;
  void AddChangeListener(ChangeListener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Human-readable system-table dump: one line per constraint with
  /// index statistics (keys, entries, max bucket, bytes, conforming?).
  std::string MetadataReport() const;

 private:
  void NotifyChange(ChangeKind kind, const std::string& table,
                    const std::string& name) const;

  Database* db_;
  AccessSchema schema_;
  std::vector<std::unique_ptr<AcIndex>> indexes_;  // parallel to schema_
  std::vector<ChangeListener> listeners_;
};

}  // namespace beas

#endif  // BEAS_ASX_ACCESS_SCHEMA_H_
