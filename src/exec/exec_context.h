#ifndef BEAS_EXEC_EXEC_CONTEXT_H_
#define BEAS_EXEC_EXEC_CONTEXT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace beas {

/// \brief Shared execution state: access counters and timing switches.
///
/// `base_tuples_read` counts every tuple read from base-table storage —
/// the quantity the paper bounds. A conventional plan that rescans a
/// table (block nested-loop passes) counts every rescan; this is exactly
/// the "DBMS may access almost the entire database" effect of §4.
class ExecContext {
 public:
  uint64_t base_tuples_read = 0;
  bool collect_timing = true;
};

/// \brief Per-operator statistics snapshot for performance analysis
/// (Fig. 3's per-operation cost breakdown).
struct OperatorStats {
  std::string label;
  uint64_t rows_out = 0;
  uint64_t tuples_accessed = 0;  ///< base tuples this operator itself read
  double total_millis = 0;       ///< inclusive of children
  double self_millis = 0;        ///< exclusive
  std::vector<OperatorStats> children;

  /// Renders the stats subtree as an indented table.
  std::string ToString(int indent = 0) const;
};

/// \brief Accumulates wall time into `*acc_millis` while in scope.
class ScopedTimer {
 public:
  ScopedTimer(double* acc_millis, bool enabled)
      : acc_(enabled ? acc_millis : nullptr) {
    if (acc_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (acc_) {
      auto end = std::chrono::steady_clock::now();
      *acc_ += std::chrono::duration<double, std::milli>(end - start_).count();
    }
  }

 private:
  double* acc_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace beas

#endif  // BEAS_EXEC_EXEC_CONTEXT_H_
