#ifndef BEAS_BINDER_BOUND_QUERY_H_
#define BEAS_BINDER_BOUND_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "expr/expression.h"

namespace beas {

/// \brief A (relation-atom, column) pair: the identity of an attribute
/// occurrence in a query. Self-joins give the same table several atoms.
struct AttrRef {
  size_t atom = 0;
  size_t col = 0;

  bool operator==(const AttrRef& other) const {
    return atom == other.atom && col == other.col;
  }
  bool operator<(const AttrRef& other) const {
    return atom != other.atom ? atom < other.atom : col < other.col;
  }
};

/// \brief One relation occurrence in FROM.
struct BoundAtom {
  TableInfo* table = nullptr;
  std::string alias;
};

/// \brief Classification of a WHERE conjunct, used by the BE checker.
enum class ConjunctClass {
  kEqConst,  ///< attr = constant
  kEqAttr,   ///< attr = attr (equi-join or intra-atom equality)
  kInConst,  ///< attr IN (c1..ck), all constants
  kOther,    ///< anything else (ranges, ORs, arithmetic, ...)
};

/// \brief One conjunct of the WHERE clause in CNF.
///
/// `expr` is always present and bound to the query's global column layout
/// (atom-major concatenation of the atom schemas); the classification
/// fields are populated per `cls`.
struct Conjunct {
  ConjunctClass cls = ConjunctClass::kOther;
  AttrRef lhs;               ///< kEqConst / kEqAttr / kInConst
  AttrRef rhs;               ///< kEqAttr
  Value const_val;           ///< kEqConst
  std::vector<Value> in_vals;  ///< kInConst
  ExprPtr expr;
  std::vector<AttrRef> attrs;  ///< all attributes referenced, sorted

  std::string ToString() const;
};

/// \brief Aggregate functions.
enum class AggFn { kNone, kCountStar, kCount, kSum, kAvg, kMin, kMax };

/// \brief One aggregate computed by the query (visible or HAVING-only).
struct AggSpec {
  AggFn fn = AggFn::kCountStar;
  bool distinct = false;
  ExprPtr arg;  ///< null for COUNT(*); bound to the global layout
  TypeId result_type = TypeId::kInt64;
  std::string name;
};

/// \brief One item of the (bound) SELECT list.
struct OutputItem {
  AggFn agg = AggFn::kNone;  ///< kNone for scalar outputs
  ExprPtr expr;              ///< scalar: bound expr; aggregate: null
  size_t slot = 0;  ///< aggregate: index into `aggregates`; scalar output of a
                    ///< grouped query: index into `group_by`
  std::string name;
  TypeId type = TypeId::kNull;
};

/// \brief ORDER BY bound to a SELECT-list position.
struct BoundOrderItem {
  size_t output_index = 0;
  bool asc = true;
};

/// \brief The fully resolved query: the IR shared by the conventional
/// planner, the BE checker, and the bounded plan generator.
struct BoundQuery {
  std::vector<BoundAtom> atoms;
  std::vector<Conjunct> conjuncts;
  std::vector<OutputItem> outputs;
  std::vector<ExprPtr> group_by;     ///< bound to the global layout
  std::vector<AggSpec> aggregates;   ///< all aggregates incl. HAVING-only
  ExprPtr having;  ///< bound to the [group values..., aggregate values...] layout
  std::vector<BoundOrderItem> order_by;
  std::optional<int64_t> limit;
  int32_t limit_param = 0;  ///< literal provenance of `limit` (0 = none)
  bool distinct = false;

  /// Atom-major global layout: column `c` of atom `a` lives at
  /// `atom_offsets[a] + c`.
  std::vector<size_t> atom_offsets;
  size_t total_columns = 0;

  bool HasAggregates() const {
    return !aggregates.empty() || !group_by.empty();
  }

  size_t GlobalIndex(AttrRef a) const { return atom_offsets[a.atom] + a.col; }

  /// Inverse of GlobalIndex.
  AttrRef AttrOfGlobal(size_t global) const;

  /// All attributes the query mentions anywhere (outputs, conjuncts,
  /// grouping, aggregate arguments), sorted and deduplicated. These are
  /// the attributes a bounded plan must produce.
  std::vector<AttrRef> AttrsUsed() const;

  /// Display name "alias.column" of an attribute.
  std::string AttrName(AttrRef a) const;

  std::string ToString() const;
};

}  // namespace beas

#endif  // BEAS_BINDER_BOUND_QUERY_H_
