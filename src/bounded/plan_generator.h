#ifndef BEAS_BOUNDED_PLAN_GENERATOR_H_
#define BEAS_BOUNDED_PLAN_GENERATOR_H_

#include <string>
#include <vector>

#include "asx/access_schema.h"
#include "binder/bound_query.h"
#include "bounded/bounded_plan.h"
#include "common/result.h"

namespace beas {

/// \brief What to cover. The default (empty vectors) is the whole query;
/// the partial-plan optimizer restricts to an atom subset and to the
/// conjuncts the bounded fragment can enforce.
struct CoverageRequest {
  const BoundQuery* query = nullptr;
  std::vector<bool> atom_enabled;      ///< empty = all atoms
  std::vector<bool> conjunct_enabled;  ///< empty = all conjuncts
};

/// \brief Outcome of the bounded-plan search.
struct GenerationResult {
  bool covered = false;
  BoundedPlan plan;        ///< valid iff covered
  std::string reason;      ///< diagnosis when not covered
  uint64_t nodes_explored = 0;
  /// True when equality predicates are contradictory (query is empty on
  /// every instance); `covered` is true with an empty plan.
  bool unsatisfiable = false;
};

/// \brief Generates bounded query plans (paper §3, BE Plan Generator) and,
/// by deciding plan existence, implements the BE Checker's coverage test.
///
/// The search explores sequences of applicable fetch steps. State = the
/// set of columns fetched per atom. A constraint ψ = R(X → Y, N) on atom
/// `a` is applicable when every X-attribute is *available*: its equality
/// class holds constants, or some class member was fetched earlier (it can
/// be keyed from the intermediate relation T). Applying ψ fetches X ∪ Y
/// into `a`. Soundness requires ONE fetch per atom covering all of the
/// atom's referenced columns (joining two Y-projections of the same
/// relation on the key alone could fabricate attribute combinations that
/// never co-occur in one tuple). The query is covered iff an order exists
/// in which every atom is fetched through one constraint whose X is
/// available at its turn and whose X ∪ Y covers the atom's needs.
///
/// Bound deduction: the running bound on |T| starts at 1 and multiplies by
/// N per fetch (and by the IN-list size when a key is seeded from a
/// not-yet-materialized constant list). The deduced total access bound is
/// the sum of per-step bounds — exactly the arithmetic of paper Example 2
/// (2,000 + 2,000·12 + 2,000·12·500).
///
/// The search is exhaustive with branch-and-bound pruning and memoization,
/// minimizing the total access bound; a cap of 200,000 search nodes
/// bounds the exploration (beyond it, the best plan found so far is
/// returned).
class BoundedPlanGenerator {
 public:
  explicit BoundedPlanGenerator(const AccessSchema* schema)
      : schema_(schema) {}

  /// Searches for the minimum-bound bounded plan for the request.
  Result<GenerationResult> Generate(const CoverageRequest& request) const;

  /// Convenience for whole-query coverage.
  Result<GenerationResult> Generate(const BoundQuery& query) const;

 private:
  const AccessSchema* schema_;
};

}  // namespace beas

#endif  // BEAS_BOUNDED_PLAN_GENERATOR_H_
