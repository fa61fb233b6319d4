#ifndef BEAS_SQL_CANONICAL_TEMPLATE_H_
#define BEAS_SQL_CANONICAL_TEMPLATE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/sql_template.h"

namespace beas {

/// \brief A masked template order-normalized into its canonical form, so
/// trivially equivalent rewrites share one cache key (plan cache AND
/// result cache).
///
/// This is the decidable sliver of the query-equivalence problem: pure
/// normalization of commutative structure, never containment reasoning.
/// Three rewrites are applied, all meaning-preserving under SQL's
/// set-of-conjuncts semantics:
///
///  1. Top-level AND conjuncts of the WHERE clause are stable-sorted by
///     their masked text (AND is commutative).
///  2. An equality with a parameter on exactly one side is oriented
///     parameter-last (`? = t.k` becomes `t.k = ?`; `=` is symmetric).
///  3. The comma-separated FROM list is sorted by table name then alias
///     (the FROM list is a set; the service binds and executes the
///     canonical template, so every spelling returns the canonical
///     answer).
///
/// Everything outside a conservatively recognized fragment — a single
/// SELECT over a comma FROM list of plain `table [alias]` items, with an
/// optional WHERE of top-level AND conjuncts (no top-level OR) and an
/// optional trailing GROUP BY / HAVING / ORDER BY / LIMIT tail — is
/// returned unchanged with `changed == false`, so canonicalization can
/// never touch a query it does not fully understand.
struct CanonicalizedTemplate {
  /// Canonical masked text, with `params` permuted to match the '?'
  /// appearance order of the canonical text.
  SqlTemplate tmpl;
  /// True iff normalization altered the template (the service counts
  /// these).
  bool changed = false;
  /// The permutation behind `tmpl.params`: canonical '?' number i binds
  /// the masked template's parameter param_order[i]. Derived from the
  /// masked text alone, never from parameter values, so every instance of
  /// one masked text shares it. Empty when `changed` is false.
  std::vector<size_t> param_order;
};

/// Normalizes `masked` (a MaskSqlLiterals result). Total: never fails;
/// unrecognized shapes come back unchanged. Equivalent to
/// ApplyCanonicalForm(CanonicalizeTemplateText(masked.text), masked).
CanonicalizedTemplate CanonicalizeTemplate(const SqlTemplate& masked);

/// The value-free half of CanonicalizeTemplate: the canonical text and
/// `param_order` of a masked text, with `tmpl.params` left empty. A pure
/// function of `masked_text` (it reads no parameter value and no catalog
/// state), so callers may memoize it by masked text with no invalidation.
CanonicalizedTemplate CanonicalizeTemplateText(const std::string& masked_text);

/// Binds one instance's parameters to `form`, a CanonicalizeTemplateText
/// result for `masked.text`: the canonical text with `masked.params`
/// permuted by `form.param_order`. Returns `masked` unchanged when `form`
/// is unchanged. `masked` must come from MaskSqlLiterals, which gives
/// every '?' exactly one parameter.
CanonicalizedTemplate ApplyCanonicalForm(const CanonicalizedTemplate& form,
                                         SqlTemplate masked);

/// Renders a masked template back into SQL by substituting each '?' with
/// its parameter's literal spelling (strings re-quoted with '' escaping,
/// integers in decimal, doubles in round-trip precision).
/// kInvalidArgument when a parameter cannot be spelled faithfully (e.g. a
/// non-finite double) or arities disagree. Not on the serving path (the
/// service binds the canonical template itself): it is the reference the
/// tests and the benchmark compare that binding against.
Result<std::string> RenderTemplate(const SqlTemplate& tmpl);

}  // namespace beas

#endif  // BEAS_SQL_CANONICAL_TEMPLATE_H_
