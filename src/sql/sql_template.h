#ifndef BEAS_SQL_SQL_TEMPLATE_H_
#define BEAS_SQL_SQL_TEMPLATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace beas {

/// \brief A SQL text with every constant literal lifted out: each '?' of
/// `text` stands for the parameter of the same ordinal in `params`.
///
/// Real workloads are dominated by repeated *parameterized templates* —
/// the same query text with different constants. The masked text is the
/// service layer's plan-cache key, and the template itself is what the
/// front end parses (the lexer reads each '?' as one literal token whose
/// value is its parameter), so the text and parameters that key the
/// caches are exactly the ones that get bound.
struct SqlTemplate {
  std::string text;           ///< e.g. "SELECT x FROM t WHERE id = ?"
  std::vector<Value> params;  ///< lifted literals, in appearance order
};

/// \brief The one literal scanner of the SQL front end: one pass over the
/// raw text. Integer (`42`), decimal (`2.5`) and quoted string (`'it''s'`)
/// literals become '?' and are lifted into `params` in appearance order;
/// `--` comments are stripped; everything else is copied verbatim, so the
/// masked text is a deterministic cache key for the query's template
/// (case/whitespace variants of one template get separate, equally
/// correct entries). A digit that continues an identifier (`t1`) is not a
/// literal. kParseError on an unterminated string or a bare '?' outside a
/// string literal, so every '?' of the result has exactly one parameter.
Result<SqlTemplate> MaskSqlLiterals(const std::string& sql);

}  // namespace beas

#endif  // BEAS_SQL_SQL_TEMPLATE_H_
