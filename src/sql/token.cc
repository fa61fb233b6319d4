#include "sql/token.h"

namespace beas {

const char* TokenTypeToString(TokenType t) {
  switch (t) {
    case TokenType::kEof: return "<eof>";
    case TokenType::kIdentifier: return "identifier";
    case TokenType::kLiteral: return "literal";
    case TokenType::kSelect: return "SELECT";
    case TokenType::kDistinct: return "DISTINCT";
    case TokenType::kFrom: return "FROM";
    case TokenType::kWhere: return "WHERE";
    case TokenType::kGroup: return "GROUP";
    case TokenType::kBy: return "BY";
    case TokenType::kHaving: return "HAVING";
    case TokenType::kOrder: return "ORDER";
    case TokenType::kLimit: return "LIMIT";
    case TokenType::kAsc: return "ASC";
    case TokenType::kDesc: return "DESC";
    case TokenType::kAnd: return "AND";
    case TokenType::kOr: return "OR";
    case TokenType::kNot: return "NOT";
    case TokenType::kIn: return "IN";
    case TokenType::kBetween: return "BETWEEN";
    case TokenType::kAs: return "AS";
    case TokenType::kJoin: return "JOIN";
    case TokenType::kInner: return "INNER";
    case TokenType::kOn: return "ON";
    case TokenType::kNull: return "NULL";
    case TokenType::kIs: return "IS";
    case TokenType::kDate: return "DATE";
    case TokenType::kComma: return ",";
    case TokenType::kDot: return ".";
    case TokenType::kStar: return "*";
    case TokenType::kLParen: return "(";
    case TokenType::kRParen: return ")";
    case TokenType::kEq: return "=";
    case TokenType::kNe: return "<>";
    case TokenType::kLt: return "<";
    case TokenType::kLe: return "<=";
    case TokenType::kGt: return ">";
    case TokenType::kGe: return ">=";
    case TokenType::kPlus: return "+";
    case TokenType::kMinus: return "-";
    case TokenType::kSlash: return "/";
    case TokenType::kPercent: return "%";
    case TokenType::kSemicolon: return ";";
  }
  return "?";
}

std::string Token::ToString() const {
  switch (type) {
    case TokenType::kIdentifier:
      return "identifier '" + text + "'";
    case TokenType::kLiteral:
      return "literal " + value->ToString();
    default:
      return TokenTypeToString(type);
  }
}

}  // namespace beas
