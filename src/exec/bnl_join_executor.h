#ifndef BEAS_EXEC_BNL_JOIN_EXECUTOR_H_
#define BEAS_EXEC_BNL_JOIN_EXECUTOR_H_

#include "exec/executor.h"
#include "expr/evaluator.h"

namespace beas {

/// \brief Block nested-loop join (the MySQL/MariaDB-like join strategy).
///
/// Buffers `buffer_rows` outer (left) rows, then re-executes the inner
/// (right) plan subtree once per buffer, testing every (outer, inner)
/// pair against the predicate. Re-executing the inner subtree re-reads
/// its base tables, so small join buffers translate into many full
/// rescans — the behaviour that makes conventional engines access data
/// proportional to |D| (and that bounded evaluation avoids).
class BnlJoinExecutor : public Executor {
 public:
  BnlJoinExecutor(ExecContext* ctx, std::unique_ptr<Executor> left,
                  const PlanNode* right_plan, ExprPtr predicate,
                  size_t buffer_rows)
      : Executor(ctx),
        right_plan_(right_plan),
        predicate_(std::move(predicate)),
        buffer_rows_(buffer_rows == 0 ? 1 : buffer_rows) {
    children_.push_back(std::move(left));
  }

  Status Init() override;
  Result<bool> Next(Row* out) override;
  std::string Label() const override;

  /// Number of inner-plan executions so far (rescans; for tests/benches).
  size_t num_inner_passes() const { return num_inner_passes_; }


 private:
  Status FillBuffer();
  Status StartInnerPass();

  const PlanNode* right_plan_;
  ExprPtr predicate_;
  size_t buffer_rows_;

  std::vector<Row> buffer_;
  bool left_exhausted_ = false;
  std::unique_ptr<Executor> inner_;
  Row current_inner_;
  bool inner_row_valid_ = false;
  size_t buffer_pos_ = 0;
  size_t num_inner_passes_ = 0;
};

}  // namespace beas

#endif  // BEAS_EXEC_BNL_JOIN_EXECUTOR_H_
