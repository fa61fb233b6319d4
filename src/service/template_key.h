#ifndef BEAS_SERVICE_TEMPLATE_KEY_H_
#define BEAS_SERVICE_TEMPLATE_KEY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "binder/bound_query.h"
#include "sql/canonical_template.h"
#include "sql/sql_template.h"

namespace beas {

/// \brief The normalized identity of a parameterized query: the plan-cache
/// key of the service layer.
///
/// Two queries share a QueryTemplate iff they differ only in constant
/// values (same tables, join/predicate structure, IN-list arities,
/// output/grouping/ordering shape). For such pairs the BE checker's
/// coverage decision, the bounded plan's step sequence, and every deduced
/// bound are identical — so they are computed once and reused, with only
/// the fetch-key constants rebound per instance (RebindPlanConstants).
/// Instances that spell a slot with another literal type (INT `7`,
/// DOUBLE `7.5`) bind differently; the plan cache keeps them as separate
/// variants of one template (plan_cache.h).
struct QueryTemplate {
  uint64_t hash = 0;          ///< hash of `canonical` (shard + map key)
  /// The canonical masked text (MaskSqlLiterals, then the canonical
  /// form). The service binds exactly this template, so binding is a
  /// deterministic function of it, the parameter types and the catalog
  /// state; catalog changes invalidate entries.
  std::string canonical;
  size_t param_count = 0;           ///< lifted constants
  std::vector<std::string> tables;  ///< referenced tables, lowercased

  /// False when the *values* of the parameters can change the coverage
  /// decision or the deduced bounds, so a cached plan must not be reused.
  /// Today that is exactly the queries where one attribute equivalence
  /// class is constrained by more than one constant-bearing predicate
  /// (e.g. "x = ?1 AND x = ?2": satisfiable iff ?1 = ?2, and the class's
  /// constant set — hence the plan — depends on the intersection).
  bool cacheable = true;
  std::string uncacheable_reason;
};

/// Builds the template for `query`, bound from `sql_template`.
QueryTemplate BuildQueryTemplate(const SqlTemplate& sql_template,
                                 const BoundQuery& query);

/// \brief Bounded memo of the canonicalizer, keyed by masked text.
///
/// Traffic is a handful of templates in one or two spellings each, so
/// almost every request repeats a masked text seen before; the memo runs
/// CanonicalizeTemplateText once per spelling instead of once per request.
/// The canonical form is a pure function of the masked text, so an entry
/// can never go stale and no catalog event invalidates the memo. When a
/// new spelling arrives at a full memo the memo is cleared first, so it
/// never holds more than `capacity` entries (0 disables it). Thread-safe.
class CanonicalFormMemo {
 public:
  explicit CanonicalFormMemo(size_t capacity) : capacity_(capacity) {}

  /// The CanonicalizeTemplateText result for `masked_text`; computed (and
  /// counted as a miss) on first sight.
  std::shared_ptr<const CanonicalizedTemplate> Get(
      const std::string& masked_text);

  size_t entries() const;
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  const size_t capacity_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const CanonicalizedTemplate>>
      forms_;
  std::atomic<uint64_t> misses_{0};
};

/// One request's template identity: the masked template in canonical
/// form. It keys both caches, and it is what the service binds, so every
/// equivalent spelling binds (and caches) the identical query.
struct TemplateInfo {
  SqlTemplate masked;
  bool canonicalized = false;  ///< the canonical form changed the text
};

/// Masks `sql` and binds its parameters to the memoized canonical form of
/// its masked text (ApplyCanonicalForm). A SQL text that fails to mask is
/// a parse error.
Result<TemplateInfo> PrepareTemplate(const std::string& sql,
                                     CanonicalFormMemo* memo);

}  // namespace beas

#endif  // BEAS_SERVICE_TEMPLATE_KEY_H_
