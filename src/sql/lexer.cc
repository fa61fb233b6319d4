#include "sql/lexer.h"

#include <cctype>
#include <unordered_map>

#include "common/string_util.h"

namespace beas {

namespace {

const std::unordered_map<std::string, TokenType>& KeywordMap() {
  static const auto* kMap = new std::unordered_map<std::string, TokenType>{
      {"select", TokenType::kSelect},   {"distinct", TokenType::kDistinct},
      {"from", TokenType::kFrom},       {"where", TokenType::kWhere},
      {"group", TokenType::kGroup},     {"by", TokenType::kBy},
      {"having", TokenType::kHaving},   {"order", TokenType::kOrder},
      {"limit", TokenType::kLimit},     {"asc", TokenType::kAsc},
      {"desc", TokenType::kDesc},       {"and", TokenType::kAnd},
      {"or", TokenType::kOr},           {"not", TokenType::kNot},
      {"in", TokenType::kIn},           {"between", TokenType::kBetween},
      {"as", TokenType::kAs},           {"join", TokenType::kJoin},
      {"inner", TokenType::kInner},     {"on", TokenType::kOn},
      {"null", TokenType::kNull},       {"is", TokenType::kIs},
      {"date", TokenType::kDate},
  };
  return *kMap;
}

}  // namespace

char Lexer::Peek(size_t ahead) const {
  size_t p = pos_ + ahead;
  return p < tmpl_.text.size() ? tmpl_.text[p] : '\0';
}

Result<Token> Lexer::Next() {
  const std::string& input = tmpl_.text;
  while (pos_ < input.size() &&
         std::isspace(static_cast<unsigned char>(input[pos_]))) {
    ++pos_;
  }
  Token tok;
  tok.pos = pos_;
  if (pos_ >= input.size()) {
    tok.type = TokenType::kEof;
    return tok;
  }
  char c = input[pos_];

  // Identifiers and keywords.
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    size_t start = pos_;
    while (pos_ < input.size() &&
           (std::isalnum(static_cast<unsigned char>(input[pos_])) ||
            input[pos_] == '_')) {
      ++pos_;
    }
    tok.text = ToLower(input.substr(start, pos_ - start));
    auto it = KeywordMap().find(tok.text);
    tok.type = it != KeywordMap().end() ? it->second : TokenType::kIdentifier;
    return tok;
  }

  // Lifted literals.
  if (c == '?') {
    ++pos_;
    if (static_cast<size_t>(next_ordinal_) >= tmpl_.params.size()) {
      return Status::ParseError("template has more '?' than parameters");
    }
    tok.type = TokenType::kLiteral;
    tok.literal_ordinal = next_ordinal_++;
    tok.value = &tmpl_.params[tok.literal_ordinal];
    return tok;
  }

  // Symbols.
  auto two = [&](char a, char b) { return c == a && Peek(1) == b; };
  if (two('<', '=')) { tok.type = TokenType::kLe; pos_ += 2; return tok; }
  if (two('>', '=')) { tok.type = TokenType::kGe; pos_ += 2; return tok; }
  if (two('<', '>')) { tok.type = TokenType::kNe; pos_ += 2; return tok; }
  if (two('!', '=')) { tok.type = TokenType::kNe; pos_ += 2; return tok; }
  ++pos_;
  switch (c) {
    case ',': tok.type = TokenType::kComma; return tok;
    case '.': tok.type = TokenType::kDot; return tok;
    case '*': tok.type = TokenType::kStar; return tok;
    case '(': tok.type = TokenType::kLParen; return tok;
    case ')': tok.type = TokenType::kRParen; return tok;
    case '=': tok.type = TokenType::kEq; return tok;
    case '<': tok.type = TokenType::kLt; return tok;
    case '>': tok.type = TokenType::kGt; return tok;
    case '+': tok.type = TokenType::kPlus; return tok;
    case '-': tok.type = TokenType::kMinus; return tok;
    case '/': tok.type = TokenType::kSlash; return tok;
    case '%': tok.type = TokenType::kPercent; return tok;
    case ';': tok.type = TokenType::kSemicolon; return tok;
    default:
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' at offset " + std::to_string(tok.pos));
  }
}

Result<std::vector<Token>> Lexer::Tokenize() {
  std::vector<Token> tokens;
  while (true) {
    BEAS_ASSIGN_OR_RETURN(Token tok, Next());
    bool eof = tok.type == TokenType::kEof;
    tokens.push_back(std::move(tok));
    if (eof) break;
  }
  if (static_cast<size_t>(next_ordinal_) != tmpl_.params.size()) {
    return Status::ParseError("template has fewer '?' than parameters");
  }
  return tokens;
}

}  // namespace beas
