#ifndef BEAS_MAINTENANCE_MAINTENANCE_H_
#define BEAS_MAINTENANCE_MAINTENANCE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "asx/access_schema.h"
#include "engine/database.h"

namespace beas {

/// \brief The AS Catalog maintenance module (paper §3, Fig. 1).
///
/// Two duties:
///  (b) "incrementally updates the indices of A in response to changes to
///      the datasets": Attach() hooks into Database writes so every
///      insert/delete updates all affected AcIndex buckets in O(1)
///      expected time — no rebuild, cost independent of |D|;
///  (a) "periodically adjusts constraints in A based on changes":
///      RevalidateAndSuggest() compares declared bounds to observed
///      maxima and proposes tightened/loosened N values, which
///      ApplySuggestions() writes back to the catalog.
class MaintenanceManager {
 public:
  MaintenanceManager(Database* db, AsCatalog* catalog)
      : db_(db), catalog_(catalog) {}

  MaintenanceManager(const MaintenanceManager&) = delete;
  MaintenanceManager& operator=(const MaintenanceManager&) = delete;

  /// Registers the write hook. Call once after the catalog is populated;
  /// constraints registered later are also maintained (the hook resolves
  /// indices per write).
  void Attach();

  /// Number of index updates applied via the hook so far (atomic: hooks
  /// run on concurrent per-shard writers).
  uint64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }

  /// \brief A proposed bound adjustment for one constraint.
  struct Adjustment {
    std::string constraint_name;
    uint64_t declared_n = 0;
    uint64_t observed_max = 0;
    uint64_t suggested_n = 0;
    bool violated = false;  ///< observed exceeded the declared bound

    std::string ToString() const;
  };

  /// Scans all indices and suggests new bounds: observed maximum scaled by
  /// `headroom` (rounded up), never below 1. A constraint whose observed
  /// maximum exceeds the declared N is flagged `violated` — until adjusted,
  /// plans deduced from it under-estimate their access bound.
  std::vector<Adjustment> RevalidateAndSuggest(double headroom = 1.2) const;

  /// Applies the given adjustments to the catalog's declared bounds.
  /// Each applied adjustment fires the catalog's change listeners, which
  /// is how the service layer's plan cache learns that deduced bounds
  /// derived from the old N values are stale.
  Status ApplySuggestions(const std::vector<Adjustment>& adjustments);

  /// Invoked at the end of every RunAdjustmentCycle, under the same
  /// exclusive structural section the cycle itself runs in. The service
  /// layer points this at the durability subsystem's MaybeCheckpoint so
  /// checkpoints ride the existing periodic-maintenance cadence (the
  /// cycle is the one moment the engine is already quiesced — segments
  /// written here need no extra locking). Set before the manager is
  /// shared across threads.
  using CheckpointHook = std::function<Status()>;
  void SetCheckpointHook(CheckpointHook hook) {
    checkpoint_hook_ = std::move(hook);
  }

  /// Invoked right before the checkpoint hook, under the same exclusive
  /// structural section. The service layer points this at the durability
  /// subsystem's scrubber: the quiesced cycle is the one moment in-memory
  /// fingerprints can be recomputed and compared against the on-disk
  /// checkpoint without racing writers. Scrubbing before the checkpoint
  /// matters — a checkpoint taken first would overwrite the last good
  /// on-disk copy with whatever (possibly rotted) state memory holds.
  using ScrubHook = std::function<Status()>;
  void SetScrubHook(ScrubHook hook) { scrub_hook_ = std::move(hook); }

  /// One periodic maintenance round: revalidate, then apply only the
  /// suggestions that actually change a declared bound (no-op adjustments
  /// would needlessly invalidate cached plans), then fire the scrub hook
  /// followed by the checkpoint hook (if set). Returns the number of
  /// bounds changed via `changed_out` (optional).
  Status RunAdjustmentCycle(double headroom = 1.2,
                            size_t* changed_out = nullptr);

 private:
  Database* db_;
  AsCatalog* catalog_;
  CheckpointHook checkpoint_hook_;
  ScrubHook scrub_hook_;
  std::atomic<uint64_t> updates_applied_{0};
};

}  // namespace beas

#endif  // BEAS_MAINTENANCE_MAINTENANCE_H_
