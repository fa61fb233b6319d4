#ifndef BEAS_SQL_LEXER_H_
#define BEAS_SQL_LEXER_H_

#include <vector>

#include "common/result.h"
#include "sql/sql_template.h"
#include "sql/token.h"

namespace beas {

/// \brief Tokenizes a masked template (MaskSqlLiterals' output).
///
/// The masker is the only place that recognises literals and comments:
/// the lexer sees text with every literal already lifted, and reads each
/// '?' as one kLiteral token whose value is `params[ordinal]`. Keywords
/// are case-insensitive; identifiers are lowercased.
class Lexer {
 public:
  /// `tmpl` must outlive the tokens (kLiteral tokens point into it).
  explicit Lexer(const SqlTemplate& tmpl) : tmpl_(tmpl) {}
  explicit Lexer(SqlTemplate&&) = delete;

  /// Lexes the whole template; the last token is always kEof.
  /// kParseError when the '?' count differs from the parameter count.
  Result<std::vector<Token>> Tokenize();

 private:
  Result<Token> Next();
  char Peek(size_t ahead = 0) const;

  const SqlTemplate& tmpl_;
  size_t pos_ = 0;
  int32_t next_ordinal_ = 0;
};

}  // namespace beas

#endif  // BEAS_SQL_LEXER_H_
