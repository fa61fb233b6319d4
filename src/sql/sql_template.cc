#include "sql/sql_template.h"

#include <cctype>
#include <cstdlib>

namespace beas {

Result<SqlTemplate> MaskSqlLiterals(const std::string& sql) {
  SqlTemplate out;
  out.text.reserve(sql.size());
  size_t i = 0;
  size_t n = sql.size();
  // Is `c` part of an identifier (so a digit after it is not a literal)?
  auto ident_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  char prev = '\0';  // previous significant source character
  while (i < n) {
    char c = sql[i];
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;  // comment: strip to EOL
      continue;
    }
    if (c == '\'') {
      std::string body;
      ++i;
      while (true) {
        if (i >= n) {
          return Status::ParseError("unterminated string literal");
        }
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            body.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        body.push_back(sql[i]);
        ++i;
      }
      out.text.push_back('?');
      out.params.push_back(Value::String(std::move(body)));
      prev = '\'';
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) && !ident_char(prev)) {
      size_t start = i;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      bool is_float = false;
      if (i + 1 < n && sql[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      std::string num = sql.substr(start, i - start);
      out.text.push_back('?');
      if (is_float) {
        out.params.push_back(Value::Double(std::strtod(num.c_str(), nullptr)));
      } else {
        out.params.push_back(
            Value::Int64(std::strtoll(num.c_str(), nullptr, 10)));
      }
      prev = '0';
      continue;
    }
    if (c == '?') {
      return Status::ParseError("unexpected character '?' at offset " +
                                std::to_string(i));
    }
    out.text.push_back(c);
    prev = c;
    ++i;
  }
  return out;
}

}  // namespace beas
