#ifndef BEAS_BOUNDED_BEAS_SESSION_H_
#define BEAS_BOUNDED_BEAS_SESSION_H_

#include <string>

#include "asx/access_schema.h"
#include "bounded/be_checker.h"
#include "bounded/bounded_executor.h"
#include "bounded/plan_optimizer.h"
#include "engine/database.h"

namespace beas {

/// \brief An approximate answer with its deterministic coverage bound
/// (paper §2/§3: when exact bounded evaluation is not affordable, BEAS
/// "guarantees a deterministic accuracy lower bound on approximate answers
/// computed, and accesses a bounded number of tuples in the entire
/// process"; the paper defers its scheme, and this is our stand-in).
///
/// Mechanism: the plan runs with BoundedExecOptions::fetch_budget set to
/// the budget. Each fetch step may spend whatever budget the earlier steps
/// left (greedy, in step order) and serves probe keys until it is spent;
/// rows whose probes were not served are dropped. η is the product over
/// steps of the served-key fraction: every reported row is computed from
/// real fetched data (a sub-bag of the exact answer for SPC queries), and
/// η is a deterministic, known-at-completion lower bound on the fraction
/// of probe work covered.
struct ApproxResult {
  QueryResult result;
  double eta = 1.0;     ///< deterministic coverage lower bound
  uint64_t budget = 0;  ///< requested fetch budget (tuples)
  uint64_t tuples_fetched = 0;
  bool exact = false;   ///< true when the budget was never binding
};

/// \brief The top-level BEAS facade, mirroring the paper's online pipeline
/// (§3): given SQL,
///   1. BE Checker decides whether the query is covered by the registered
///      access schema;
///   2. if covered, BE Plan Generator emits a bounded plan (each fetch
///      annotated with its deduced bound) and BE Plan Executor computes
///      exact answers within bounded resources;
///   3. otherwise BE Plan Optimizer builds a partially bounded plan on top
///      of the conventional engine.
/// Resource-bounded approximation is available for covered queries whose
/// deduced bound exceeds a user budget.
class BeasSession {
 public:
  BeasSession(Database* db, AsCatalog* catalog)
      : db_(db),
        catalog_(catalog),
        checker_(&catalog->schema()),
        executor_(catalog),
        optimizer_(db, catalog) {}

  Database* db() { return db_; }
  AsCatalog* catalog() { return catalog_; }

  /// BE Checker entry: parse, bind, and check coverage.
  Result<CoverageResult> Check(const std::string& sql) const;

  /// BE Checker entry for an already-bound query (plan-reuse path: the
  /// service layer binds once and routes through its template cache).
  Result<CoverageResult> Check(const BoundQuery& query) const {
    return checker_.Check(query);
  }

  /// Budget check without execution (Fig. 2(A)).
  Result<BeChecker::BudgetReport> CheckBudget(const std::string& sql,
                                              uint64_t budget) const;

  /// \brief Which pipeline Execute() chose, for the demo/analysis UI.
  struct ExecutionDecision {
    enum class Mode { kBounded, kPartiallyBounded, kConventional };
    Mode mode = Mode::kConventional;
    std::string explanation;
    uint64_t deduced_bound = 0;  ///< bound M when (partially) bounded
  };

  /// The paper's main flow: bounded if covered, else partially bounded
  /// (which itself falls back to conventional when nothing is coverable).
  Result<QueryResult> Execute(const std::string& sql,
                              ExecutionDecision* decision = nullptr,
                              const EngineProfile& fallback_profile =
                                  EngineProfile::PostgresLike()) const;

  /// Strict bounded execution; NotCovered error if the checker rejects.
  Result<QueryResult> ExecuteBounded(const std::string& sql) const;

  /// Resource-bounded approximation of a covered query.
  Result<ApproxResult> ExecuteApproximate(const std::string& sql,
                                          uint64_t budget) const;

  /// \name Plan-reuse entry points (used by the service layer's template
  /// plan cache to run pre-bound queries with cached, constant-rebound
  /// plans without repeating the coverage search).
  /// @{

  /// Full pipeline on a pre-bound query.
  Result<QueryResult> Execute(const BoundQuery& query,
                              ExecutionDecision* decision = nullptr,
                              const EngineProfile& fallback_profile =
                                  EngineProfile::PostgresLike()) const;

  /// Bounded execution of a covered query with a known plan. `stats_out`
  /// (optional) surfaces the chain's η / timed_out telemetry to callers
  /// that need it even on the stats-skipping fast path.
  Result<QueryResult> ExecuteCovered(
      const BoundQuery& query, const BoundedPlan& plan,
      const BoundedExecOptions& options = {},
      BoundedExecStats* stats_out = nullptr) const {
    return executor_.Execute(query, plan, options, stats_out);
  }

  /// Partial-plan search half (cacheable per template).
  Result<PartialPlanChoice> ChoosePartialPlan(const BoundQuery& query) const {
    return optimizer_.ChoosePlan(query);
  }

  /// Partial-plan execution half, for a cached (rebound) choice.
  Result<PartialPlanResult> ExecutePartialChoice(
      const BoundQuery& query, const PartialPlanChoice& choice,
      const EngineProfile& fallback_profile = EngineProfile::PostgresLike(),
      const BoundedExecOptions& exec_options = {}) const {
    return optimizer_.ExecuteChoice(query, choice, fallback_profile,
                                    exec_options);
  }

  /// @}

 private:
  Database* db_;
  AsCatalog* catalog_;
  BeChecker checker_;
  BoundedExecutor executor_;
  BePlanOptimizer optimizer_;
};

}  // namespace beas

#endif  // BEAS_BOUNDED_BEAS_SESSION_H_
