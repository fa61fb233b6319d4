#ifndef BEAS_SQL_TOKEN_H_
#define BEAS_SQL_TOKEN_H_

#include <cstdint>
#include <string>

#include "types/value.h"

namespace beas {

/// \brief Lexical token kinds for the SQL subset BEAS parses.
enum class TokenType {
  kEof = 0,
  kIdentifier,
  kLiteral,  ///< a '?' of the masked template

  // Keywords.
  kSelect,
  kDistinct,
  kFrom,
  kWhere,
  kGroup,
  kBy,
  kHaving,
  kOrder,
  kLimit,
  kAsc,
  kDesc,
  kAnd,
  kOr,
  kNot,
  kIn,
  kBetween,
  kAs,
  kJoin,
  kInner,
  kOn,
  kNull,
  kIs,
  kDate,

  // Symbols.
  kComma,
  kDot,
  kStar,
  kLParen,
  kRParen,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kSlash,
  kPercent,
  kSemicolon,
};

/// \brief A lexed token with its source position (for error messages).
struct Token {
  TokenType type = TokenType::kEof;
  std::string text;  ///< Identifier/keyword text.
  size_t pos = 0;    ///< Byte offset in the masked template text.

  /// For kLiteral: the 0-based index of this '?' among the template's
  /// marks — the parameter slot it occupies (see sql_template.h) — and
  /// that parameter, owned by the template being parsed. -1 / null for
  /// other tokens.
  int32_t literal_ordinal = -1;
  const Value* value = nullptr;

  std::string ToString() const;
};

/// \brief Name of a token type for diagnostics.
const char* TokenTypeToString(TokenType t);

}  // namespace beas

#endif  // BEAS_SQL_TOKEN_H_
