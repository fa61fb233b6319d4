#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/lexer.h"

namespace beas {

namespace {

bool IsAggregateName(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

/// The literal -`v` (INT64 or DOUBLE) with provenance `param`.
AstExprPtr NegatedLiteral(const Value& v, int32_t param) {
  return AstExpr::MakeLiteral(v.type() == TypeId::kInt64
                                  ? Value::Int64(-v.AsInt64())
                                  : Value::Double(-v.AsDouble()),
                              param);
}

}  // namespace

Result<SelectStatement> Parser::Parse(const std::string& sql) {
  BEAS_ASSIGN_OR_RETURN(SqlTemplate tmpl, MaskSqlLiterals(sql));
  return Parse(tmpl);
}

Result<SelectStatement> Parser::Parse(const SqlTemplate& tmpl) {
  Lexer lexer(tmpl);
  BEAS_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  BEAS_ASSIGN_OR_RETURN(SelectStatement stmt, parser.ParseSelect());
  parser.Match(TokenType::kSemicolon);
  if (parser.Peek().type != TokenType::kEof) {
    return parser.ErrorHere("trailing input after statement");
  }
  return stmt;
}

const Token& Parser::Peek(size_t ahead) const {
  size_t p = pos_ + ahead;
  if (p >= tokens_.size()) p = tokens_.size() - 1;  // EOF token
  return tokens_[p];
}

const Token& Parser::Advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::Match(TokenType t) {
  if (Peek().type == t) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenType t, const char* context) {
  if (Match(t)) return Status::OK();
  return ErrorHere(std::string("expected ") + TokenTypeToString(t) + " " +
                   context + ", got " + Peek().ToString());
}

Status Parser::ErrorHere(const std::string& msg) const {
  return Status::ParseError(msg + " (at offset " + std::to_string(Peek().pos) +
                            ")");
}

Result<SelectStatement> Parser::ParseSelect() {
  SelectStatement stmt;
  BEAS_RETURN_NOT_OK(Expect(TokenType::kSelect, "to start query"));
  stmt.distinct = Match(TokenType::kDistinct);

  // Select list.
  while (true) {
    SelectItem item;
    BEAS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (Match(TokenType::kAs)) {
      if (Peek().type != TokenType::kIdentifier) {
        return ErrorHere("expected alias after AS");
      }
      item.alias = Advance().text;
    } else if (Peek().type == TokenType::kIdentifier) {
      item.alias = Advance().text;
    }
    stmt.items.push_back(std::move(item));
    if (!Match(TokenType::kComma)) break;
  }

  // FROM clause.
  BEAS_RETURN_NOT_OK(Expect(TokenType::kFrom, "after select list"));
  auto parse_table_ref = [&]() -> Result<TableRef> {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected table name in FROM");
    }
    TableRef ref;
    ref.table = Advance().text;
    if (Match(TokenType::kAs)) {
      if (Peek().type != TokenType::kIdentifier) {
        return ErrorHere("expected alias after AS");
      }
      ref.alias = Advance().text;
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Advance().text;
    } else {
      ref.alias = ref.table;
    }
    return ref;
  };

  {
    BEAS_ASSIGN_OR_RETURN(TableRef first, parse_table_ref());
    stmt.from.push_back(std::move(first));
  }
  std::vector<AstExprPtr> join_conds;
  while (true) {
    if (Match(TokenType::kComma)) {
      BEAS_ASSIGN_OR_RETURN(TableRef ref, parse_table_ref());
      stmt.from.push_back(std::move(ref));
      continue;
    }
    bool inner = Peek().type == TokenType::kInner;
    if (inner || Peek().type == TokenType::kJoin) {
      if (inner) {
        Advance();
        BEAS_RETURN_NOT_OK(Expect(TokenType::kJoin, "after INNER"));
      } else {
        Advance();  // JOIN
      }
      BEAS_ASSIGN_OR_RETURN(TableRef ref, parse_table_ref());
      stmt.from.push_back(std::move(ref));
      BEAS_RETURN_NOT_OK(Expect(TokenType::kOn, "after JOIN table"));
      BEAS_ASSIGN_OR_RETURN(AstExprPtr cond, ParseExpr());
      join_conds.push_back(std::move(cond));
      continue;
    }
    break;
  }

  // WHERE.
  if (Match(TokenType::kWhere)) {
    BEAS_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  // Fold JOIN ... ON conditions into WHERE.
  for (auto& cond : join_conds) {
    if (stmt.where) {
      stmt.where = AstExpr::MakeBinary(AstBinOp::kAnd, std::move(stmt.where),
                                       std::move(cond));
    } else {
      stmt.where = std::move(cond);
    }
  }

  // GROUP BY.
  if (Match(TokenType::kGroup)) {
    BEAS_RETURN_NOT_OK(Expect(TokenType::kBy, "after GROUP"));
    while (true) {
      BEAS_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
      stmt.group_by.push_back(std::move(e));
      if (!Match(TokenType::kComma)) break;
    }
  }

  // HAVING.
  if (Match(TokenType::kHaving)) {
    BEAS_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
  }

  // ORDER BY.
  if (Match(TokenType::kOrder)) {
    BEAS_RETURN_NOT_OK(Expect(TokenType::kBy, "after ORDER"));
    while (true) {
      OrderItem item;
      BEAS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (Match(TokenType::kDesc)) {
        item.asc = false;
      } else {
        Match(TokenType::kAsc);
      }
      stmt.order_by.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
  }

  // LIMIT.
  if (Match(TokenType::kLimit)) {
    if (Peek().type != TokenType::kLiteral ||
        Peek().value->type() != TypeId::kInt64) {
      return ErrorHere("expected integer after LIMIT");
    }
    const Token& tok = Advance();
    stmt.limit = tok.value->AsInt64();
    stmt.limit_param = tok.literal_ordinal + 1;
  }
  return stmt;
}

Result<AstExprPtr> Parser::ParseExpr() {
  BEAS_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAnd());
  while (Match(TokenType::kOr)) {
    BEAS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAnd());
    lhs = AstExpr::MakeBinary(AstBinOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<AstExprPtr> Parser::ParseAnd() {
  BEAS_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseNot());
  while (Match(TokenType::kAnd)) {
    BEAS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseNot());
    lhs = AstExpr::MakeBinary(AstBinOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<AstExprPtr> Parser::ParseNot() {
  if (Match(TokenType::kNot)) {
    BEAS_ASSIGN_OR_RETURN(AstExprPtr child, ParseNot());
    return AstExpr::MakeUnary(AstUnOp::kNot, std::move(child));
  }
  return ParseComparison();
}

Result<AstExprPtr> Parser::ParseComparison() {
  BEAS_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAdditive());

  // expr IS [NOT] NULL
  if (Match(TokenType::kIs)) {
    bool negated = Match(TokenType::kNot);
    BEAS_RETURN_NOT_OK(Expect(TokenType::kNull, "after IS"));
    auto e = std::make_unique<AstExpr>();
    e->type = AstExprType::kIsNull;
    e->negated = negated;
    e->children.push_back(std::move(lhs));
    return e;
  }

  // expr [NOT] BETWEEN lo AND hi | expr [NOT] IN (...)
  bool negated = false;
  if (Peek().type == TokenType::kNot &&
      (Peek(1).type == TokenType::kBetween || Peek(1).type == TokenType::kIn)) {
    Advance();
    negated = true;
  }
  if (Match(TokenType::kBetween)) {
    BEAS_ASSIGN_OR_RETURN(AstExprPtr lo, ParseAdditive());
    BEAS_RETURN_NOT_OK(Expect(TokenType::kAnd, "in BETWEEN"));
    BEAS_ASSIGN_OR_RETURN(AstExprPtr hi, ParseAdditive());
    auto e = std::make_unique<AstExpr>();
    e->type = AstExprType::kBetween;
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(lo));
    e->children.push_back(std::move(hi));
    AstExprPtr out = std::move(e);
    if (negated) out = AstExpr::MakeUnary(AstUnOp::kNot, std::move(out));
    return out;
  }
  if (Match(TokenType::kIn)) {
    BEAS_RETURN_NOT_OK(Expect(TokenType::kLParen, "after IN"));
    auto e = std::make_unique<AstExpr>();
    e->type = AstExprType::kInList;
    e->children.push_back(std::move(lhs));
    while (true) {
      BEAS_ASSIGN_OR_RETURN(AstExprPtr item, ParseLiteralValue());
      e->children.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
    BEAS_RETURN_NOT_OK(Expect(TokenType::kRParen, "to close IN list"));
    AstExprPtr out = std::move(e);
    if (negated) out = AstExpr::MakeUnary(AstUnOp::kNot, std::move(out));
    return out;
  }

  AstBinOp op;
  switch (Peek().type) {
    case TokenType::kEq: op = AstBinOp::kEq; break;
    case TokenType::kNe: op = AstBinOp::kNe; break;
    case TokenType::kLt: op = AstBinOp::kLt; break;
    case TokenType::kLe: op = AstBinOp::kLe; break;
    case TokenType::kGt: op = AstBinOp::kGt; break;
    case TokenType::kGe: op = AstBinOp::kGe; break;
    default:
      return lhs;
  }
  Advance();
  BEAS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAdditive());
  return AstExpr::MakeBinary(op, std::move(lhs), std::move(rhs));
}

Result<AstExprPtr> Parser::ParseAdditive() {
  BEAS_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseMultiplicative());
  while (true) {
    AstBinOp op;
    if (Peek().type == TokenType::kPlus) {
      op = AstBinOp::kAdd;
    } else if (Peek().type == TokenType::kMinus) {
      op = AstBinOp::kSub;
    } else {
      break;
    }
    Advance();
    BEAS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseMultiplicative());
    lhs = AstExpr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<AstExprPtr> Parser::ParseMultiplicative() {
  BEAS_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseUnary());
  while (true) {
    AstBinOp op;
    if (Peek().type == TokenType::kStar) {
      op = AstBinOp::kMul;
    } else if (Peek().type == TokenType::kSlash) {
      op = AstBinOp::kDiv;
    } else if (Peek().type == TokenType::kPercent) {
      op = AstBinOp::kMod;
    } else {
      break;
    }
    Advance();
    BEAS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseUnary());
    lhs = AstExpr::MakeBinary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<AstExprPtr> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    BEAS_ASSIGN_OR_RETURN(AstExprPtr child, ParseUnary());
    // Fold negation of literals immediately (flipping the provenance sign
    // so instantiation re-applies the negation to new parameters).
    if (child->type == AstExprType::kLiteral &&
        (child->literal.type() == TypeId::kInt64 ||
         child->literal.type() == TypeId::kDouble)) {
      return NegatedLiteral(child->literal, -child->literal_param);
    }
    return AstExpr::MakeUnary(AstUnOp::kNeg, std::move(child));
  }
  return ParsePrimary();
}

Result<AstExprPtr> Parser::ParseLiteralValue() {
  // Used inside IN lists: literals only, optionally DATE-prefixed or
  // negated. Literal provenance (+k/-k, see AstExpr::literal_param) is
  // threaded from the token ordinals so bound queries can be
  // re-instantiated with fresh parameters.
  if (Match(TokenType::kNull)) return AstExpr::MakeLiteral(Value::Null());
  const bool date = Match(TokenType::kDate);
  const bool negate = !date && Match(TokenType::kMinus);
  const Token& tok = Peek();
  const TypeId type =
      tok.type == TokenType::kLiteral ? tok.value->type() : TypeId::kNull;
  if (date && type != TypeId::kString) {
    return ErrorHere("expected string after DATE");
  }
  if (negate && type != TypeId::kInt64 && type != TypeId::kDouble) {
    return ErrorHere("expected number after '-'");
  }
  if (type == TypeId::kNull) {
    return ErrorHere("expected literal, got " + tok.ToString());
  }
  Advance();
  const int32_t param = tok.literal_ordinal + 1;
  if (date) {
    BEAS_ASSIGN_OR_RETURN(Value v, Value::DateFromString(tok.value->AsString()));
    return AstExpr::MakeLiteral(std::move(v), param);
  }
  if (negate) return NegatedLiteral(*tok.value, -param);
  return AstExpr::MakeLiteral(*tok.value, param);
}

Result<AstExprPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();
  switch (tok.type) {
    case TokenType::kLiteral:
    case TokenType::kNull:
      return ParseLiteralValue();
    case TokenType::kDate:
      // DATE 'YYYY-MM-DD' is a literal; a bare `date` is a column named
      // "date" (common in CDR schemas, e.g. call.date).
      if (Peek(1).type == TokenType::kLiteral &&
          Peek(1).value->type() == TypeId::kString) {
        return ParseLiteralValue();
      }
      Advance();
      return AstExpr::MakeColumn("", "date");
    case TokenType::kStar:
      Advance();
      return AstExpr::MakeStar();
    case TokenType::kLParen: {
      Advance();
      BEAS_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
      BEAS_RETURN_NOT_OK(Expect(TokenType::kRParen, "to close parenthesis"));
      return e;
    }
    case TokenType::kIdentifier: {
      std::string name = Advance().text;
      // Function call.
      if (Peek().type == TokenType::kLParen && IsAggregateName(name)) {
        Advance();
        auto e = std::make_unique<AstExpr>();
        e->type = AstExprType::kFunction;
        e->func_name = name;
        e->distinct_arg = Match(TokenType::kDistinct);
        if (Peek().type == TokenType::kStar) {
          Advance();
          e->children.push_back(AstExpr::MakeStar());
        } else {
          BEAS_ASSIGN_OR_RETURN(AstExprPtr arg, ParseExpr());
          e->children.push_back(std::move(arg));
        }
        BEAS_RETURN_NOT_OK(Expect(TokenType::kRParen, "to close function call"));
        return e;
      }
      if (Peek().type == TokenType::kLParen) {
        return ErrorHere("unknown function '" + name + "'");
      }
      // Qualified column.
      if (Match(TokenType::kDot)) {
        // Allow keywords that double as column names after the dot (e.g.
        // call.date, package.year): accept identifier-ish tokens.
        const Token& col = Peek();
        if (col.type == TokenType::kIdentifier || col.type == TokenType::kDate ||
            col.type == TokenType::kGroup || col.type == TokenType::kOrder) {
          std::string col_name =
              col.type == TokenType::kIdentifier ? col.text
                                                 : ToLower(TokenTypeToString(col.type));
          Advance();
          return AstExpr::MakeColumn(name, col_name);
        }
        return ErrorHere("expected column name after '.'");
      }
      return AstExpr::MakeColumn("", name);
    }
    default:
      return ErrorHere("unexpected token " + tok.ToString());
  }
}

}  // namespace beas
