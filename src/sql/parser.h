#ifndef BEAS_SQL_PARSER_H_
#define BEAS_SQL_PARSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/sql_template.h"
#include "sql/token.h"

namespace beas {

/// \brief Recursive-descent parser for the BEAS SQL subset:
///
///   SELECT [DISTINCT] item[, ...]
///   FROM table [alias][, ...] | table [INNER] JOIN table ON cond
///   [WHERE cond] [GROUP BY expr[, ...]] [HAVING cond]
///   [ORDER BY expr [ASC|DESC][, ...]] [LIMIT n]
///
/// with expressions over =, <>, <, <=, >, >=, AND, OR, NOT,
/// BETWEEN..AND, IN (literal list), IS [NOT] NULL, arithmetic
/// (+ - * / %), aggregate functions COUNT/SUM/AVG/MIN/MAX
/// (COUNT(*) and COUNT(DISTINCT x) included), and DATE 'YYYY-MM-DD'
/// literals.
class Parser {
 public:
  /// Parses a single SELECT statement (trailing ';' optional): masks its
  /// literals (MaskSqlLiterals), then parses the template.
  static Result<SelectStatement> Parse(const std::string& sql);

  /// Parses a masked template. Each literal of the AST carries the value
  /// and the provenance (AstExpr::literal_param) of its '?'. Error
  /// offsets count positions in `tmpl.text`.
  static Result<SelectStatement> Parse(const SqlTemplate& tmpl);

 private:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseSelect();

  // Expression grammar, lowest to highest precedence.
  Result<AstExprPtr> ParseExpr();        // OR
  Result<AstExprPtr> ParseAnd();
  Result<AstExprPtr> ParseNot();
  Result<AstExprPtr> ParseComparison();  // = <> < <= > >= BETWEEN IN IS
  Result<AstExprPtr> ParseAdditive();
  Result<AstExprPtr> ParseMultiplicative();
  Result<AstExprPtr> ParseUnary();
  Result<AstExprPtr> ParsePrimary();

  Result<AstExprPtr> ParseLiteralValue();

  const Token& Peek(size_t ahead = 0) const;
  const Token& Advance();
  bool Match(TokenType t);
  Status Expect(TokenType t, const char* context);
  Status ErrorHere(const std::string& msg) const;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace beas

#endif  // BEAS_SQL_PARSER_H_
