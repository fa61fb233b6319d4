#include "bounded/beas_session.h"

#include "common/string_util.h"

namespace beas {

Result<CoverageResult> BeasSession::Check(const std::string& sql) const {
  BEAS_ASSIGN_OR_RETURN(BoundQuery query, db_->Bind(sql));
  return checker_.Check(query);
}

Result<BeChecker::BudgetReport> BeasSession::CheckBudget(
    const std::string& sql, uint64_t budget) const {
  BEAS_ASSIGN_OR_RETURN(BoundQuery query, db_->Bind(sql));
  return checker_.CheckBudget(query, budget);
}

Result<QueryResult> BeasSession::Execute(
    const std::string& sql, ExecutionDecision* decision,
    const EngineProfile& fallback_profile) const {
  BEAS_ASSIGN_OR_RETURN(BoundQuery query, db_->Bind(sql));
  return Execute(query, decision, fallback_profile);
}

Result<QueryResult> BeasSession::Execute(
    const BoundQuery& query, ExecutionDecision* decision,
    const EngineProfile& fallback_profile) const {
  BEAS_ASSIGN_OR_RETURN(CoverageResult coverage, checker_.Check(query));
  if (coverage.covered) {
    BEAS_ASSIGN_OR_RETURN(QueryResult result,
                          executor_.Execute(query, coverage.plan));
    if (decision != nullptr) {
      decision->mode = ExecutionDecision::Mode::kBounded;
      decision->deduced_bound = coverage.plan.total_access_bound;
      decision->explanation =
          "covered by the access schema; bounded plan with deduced bound M = " +
          WithCommas(coverage.plan.total_access_bound);
    }
    return result;
  }
  BEAS_ASSIGN_OR_RETURN(
      PartialPlanResult partial,
      optimizer_.ExecutePartiallyBounded(query, fallback_profile));
  if (decision != nullptr) {
    decision->mode = partial.any_bounded
                         ? ExecutionDecision::Mode::kPartiallyBounded
                         : ExecutionDecision::Mode::kConventional;
    decision->deduced_bound = partial.fragment_access_bound;
    decision->explanation = coverage.reason + "; " + partial.description;
  }
  return partial.result;
}

Result<QueryResult> BeasSession::ExecuteBounded(const std::string& sql) const {
  BEAS_ASSIGN_OR_RETURN(BoundQuery query, db_->Bind(sql));
  BEAS_ASSIGN_OR_RETURN(CoverageResult coverage, checker_.Check(query));
  if (!coverage.covered) {
    return Status::NotCovered(coverage.reason);
  }
  return executor_.Execute(query, coverage.plan);
}

Result<ApproxResult> BeasSession::ExecuteApproximate(const std::string& sql,
                                                     uint64_t budget) const {
  BEAS_ASSIGN_OR_RETURN(BoundQuery query, db_->Bind(sql));
  BEAS_ASSIGN_OR_RETURN(CoverageResult coverage, checker_.Check(query));
  if (!coverage.covered) {
    return Status::NotCovered(
        "approximation requires a covered query: " + coverage.reason);
  }
  BoundedExecOptions options;
  options.fetch_budget = budget;
  BoundedExecStats stats;
  ApproxResult out;
  BEAS_ASSIGN_OR_RETURN(out.result, executor_.Execute(query, coverage.plan,
                                                      options, &stats));
  out.result.engine = "BEAS (resource-bounded approximation)";
  out.eta = stats.eta;
  out.budget = budget;
  out.tuples_fetched = stats.tuples_fetched;
  out.exact = stats.eta >= 1.0;
  return out;
}

}  // namespace beas
