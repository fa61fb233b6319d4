#include "exec/bnl_join_executor.h"

namespace beas {

namespace {

uint64_t SumTuples(const OperatorStats& stats) {
  uint64_t total = stats.tuples_accessed;
  for (const auto& child : stats.children) total += SumTuples(child);
  return total;
}

}  // namespace

Status BnlJoinExecutor::Init() {
  BEAS_RETURN_NOT_OK(children_[0]->Init());
  buffer_.clear();
  left_exhausted_ = false;
  inner_.reset();
  inner_row_valid_ = false;
  buffer_pos_ = 0;
  num_inner_passes_ = 0;
  return Status::OK();
}

Status BnlJoinExecutor::FillBuffer() {
  buffer_.clear();
  Row row;
  while (buffer_.size() < buffer_rows_) {
    auto has = children_[0]->Next(&row);
    if (!has.ok()) return has.status();
    if (!*has) {
      left_exhausted_ = true;
      break;
    }
    buffer_.push_back(row);
  }
  return Status::OK();
}

Status BnlJoinExecutor::StartInnerPass() {
  BEAS_ASSIGN_OR_RETURN(inner_, BuildExecutor(*right_plan_, ctx_));
  BEAS_RETURN_NOT_OK(inner_->Init());
  ++num_inner_passes_;
  inner_row_valid_ = false;
  buffer_pos_ = 0;
  return Status::OK();
}

Result<bool> BnlJoinExecutor::Next(Row* out) {
  ScopedTimer timer(&millis_, ctx_->collect_timing);
  while (true) {
    if (buffer_.empty()) {
      if (left_exhausted_) return false;
      BEAS_RETURN_NOT_OK(FillBuffer());
      if (buffer_.empty()) return false;
      BEAS_RETURN_NOT_OK(StartInnerPass());
    }
    // Iterate (inner row) x (buffered outer rows).
    while (true) {
      if (!inner_row_valid_) {
        BEAS_ASSIGN_OR_RETURN(bool has, inner_->Next(&current_inner_));
        if (!has) {
          // Pass complete: fold inner access counts into this operator.
          tuples_accessed_ += SumTuples(inner_->CollectStats());
          inner_.reset();
          buffer_.clear();
          if (left_exhausted_) return false;
          BEAS_RETURN_NOT_OK(FillBuffer());
          if (buffer_.empty()) return false;
          BEAS_RETURN_NOT_OK(StartInnerPass());
          continue;
        }
        inner_row_valid_ = true;
        buffer_pos_ = 0;
      }
      while (buffer_pos_ < buffer_.size()) {
        const Row& outer = buffer_[buffer_pos_];
        ++buffer_pos_;
        Row joined = ConcatRows(outer, current_inner_);
        bool pass = true;
        if (predicate_) {
          BEAS_ASSIGN_OR_RETURN(pass, EvalPredicate(*predicate_, joined));
        }
        if (pass) {
          *out = std::move(joined);
          ++rows_out_;
          return true;
        }
      }
      inner_row_valid_ = false;
    }
  }
}

std::string BnlJoinExecutor::Label() const {
  std::string pred = predicate_ ? predicate_->ToString() : "true";
  return "BNLJoin(" + pred + ", buffer=" + std::to_string(buffer_rows_) +
         ", passes=" + std::to_string(num_inner_passes_) + ")";
}

}  // namespace beas
