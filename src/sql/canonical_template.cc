#include "sql/canonical_template.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

namespace beas {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

std::string ToUpperAscii(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = std::toupper(static_cast<unsigned char>(c));
  return out;
}

std::string ToLowerAscii(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = std::tolower(static_cast<unsigned char>(c));
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// One top-level word of the masked text: [start, end) plus its uppercase
/// spelling and the paren depth it sits at. Masked text carries no string
/// literals (MaskSqlLiterals replaced them with '?'), so a flat
/// depth-tracking scan is exact.
struct Word {
  size_t start = 0;
  size_t end = 0;
  size_t depth = 0;
  std::string upper;
};

std::vector<Word> ScanWords(const std::string& text) {
  std::vector<Word> words;
  size_t depth = 0;
  size_t i = 0;
  char prev = '\0';
  while (i < text.size()) {
    char c = text[i];
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      if (depth > 0) --depth;
    } else if ((std::isalpha(static_cast<unsigned char>(c)) || c == '_') &&
               !IsIdentChar(prev) && prev != '.') {
      Word w;
      w.start = i;
      w.depth = depth;
      while (i < text.size() && (IsIdentChar(text[i]) || text[i] == '.')) ++i;
      w.end = i;
      w.upper = ToUpperAscii(text.substr(w.start, w.end - w.start));
      words.push_back(std::move(w));
      prev = text[i - 1];
      continue;
    }
    prev = c;
    ++i;
  }
  return words;
}

/// A clause slice carrying the parameter ordinals of the '?' marks inside
/// it, in appearance order — reordering slices reorders ordinals with
/// them, which is how the canonical params permutation is derived.
struct Piece {
  std::string text;
  std::vector<size_t> params;
};

Piece MakePiece(const std::string& text, size_t begin, size_t end) {
  Piece p;
  p.text = Trim(text.substr(begin, end - begin));
  size_t ordinal = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '?') continue;
    if (i >= begin && i < end) p.params.push_back(ordinal);
    ++ordinal;
  }
  return p;
}

/// Splits `piece` at top-level commas (depth 0); preserves slice text.
std::vector<Piece> SplitTopLevel(const Piece& piece, char sep) {
  std::vector<Piece> out;
  size_t depth = 0;
  size_t begin = 0;
  size_t pi = 0;  // param cursor into piece.params
  Piece cur;
  for (size_t i = 0; i <= piece.text.size(); ++i) {
    bool at_end = i == piece.text.size();
    char c = at_end ? sep : piece.text[i];
    if (!at_end && c == '(') ++depth;
    if (!at_end && c == ')' && depth > 0) --depth;
    if (!at_end && c == '?') cur.params.push_back(piece.params[pi++]);
    if (c == sep && depth == 0) {
      cur.text = Trim(piece.text.substr(begin, i - begin));
      out.push_back(std::move(cur));
      cur = Piece();
      begin = i + 1;
    }
  }
  return out;
}

/// `table` or `table [AS] alias`, plain identifiers only (no dots, no
/// parens, no '?'). Returns false when the item is anything fancier.
bool ParseFromItem(const Piece& item, std::string* sort_key) {
  if (!item.params.empty()) return false;
  std::vector<std::string> parts;
  size_t i = 0;
  const std::string& t = item.text;
  while (i < t.size()) {
    if (IsSpace(t[i])) {
      ++i;
      continue;
    }
    if (!(std::isalpha(static_cast<unsigned char>(t[i])) || t[i] == '_')) {
      return false;
    }
    size_t b = i;
    while (i < t.size() && IsIdentChar(t[i])) ++i;
    parts.push_back(t.substr(b, i - b));
  }
  if (parts.size() == 3 && ToUpperAscii(parts[1]) == "AS") {
    parts.erase(parts.begin() + 1);
  }
  if (parts.empty() || parts.size() > 2) return false;
  *sort_key = ToLowerAscii(parts[0]);
  sort_key->push_back('\0');
  if (parts.size() == 2) *sort_key += ToLowerAscii(parts[1]);
  return true;
}

/// Orients `lhs = rhs` conjuncts parameter-last when exactly one side is
/// a bare '?'. Anything else is left untouched.
Piece OrientEquality(Piece conjunct) {
  const std::string& t = conjunct.text;
  size_t depth = 0;
  size_t eq = std::string::npos;
  for (size_t i = 0; i < t.size(); ++i) {
    char c = t[i];
    if (c == '(') ++depth;
    if (c == ')' && depth > 0) --depth;
    if (depth != 0 || c != '=') continue;
    // '<=', '>=', '<>', '!=' are not the symmetric equality.
    if (i > 0 && (t[i - 1] == '<' || t[i - 1] == '>' || t[i - 1] == '!')) {
      continue;
    }
    if (eq != std::string::npos) return conjunct;  // two '=': not simple
    eq = i;
  }
  if (eq == std::string::npos) return conjunct;
  std::string lhs = Trim(t.substr(0, eq));
  std::string rhs = Trim(t.substr(eq + 1));
  // rhs must be '?'-free: swapping '? = t.a + ?' would reorder the '?'
  // appearance without permuting params, binding literals to the wrong
  // marks (and colliding with the key of a genuinely different query).
  if (lhs != "?" || rhs.empty() || rhs.find('?') != std::string::npos) {
    return conjunct;
  }
  Piece out;
  out.text = rhs + " = " + lhs;
  // lhs held the conjunct's only '?', so its ordinal stays put.
  out.params = std::move(conjunct.params);
  return out;
}

}  // namespace

CanonicalizedTemplate CanonicalizeTemplate(const SqlTemplate& masked) {
  return ApplyCanonicalForm(CanonicalizeTemplateText(masked.text), masked);
}

CanonicalizedTemplate CanonicalizeTemplateText(const std::string& text) {
  CanonicalizedTemplate unchanged;
  unchanged.tmpl.text = text;

  std::vector<Word> words = ScanWords(text);
  if (words.empty() || words[0].upper != "SELECT" ||
      Trim(text.substr(0, words[0].start)) != "") {
    return unchanged;
  }

  // Top-level clause boundaries; the fragment requires exactly
  // SELECT ... FROM ... [WHERE ...] [GROUP|HAVING|ORDER|LIMIT tail].
  size_t from_at = std::string::npos, where_at = std::string::npos;
  size_t tail_at = std::string::npos;
  size_t from_end = 0, where_end = 0;
  for (const Word& w : words) {
    if (w.depth != 0) continue;
    if (w.upper == "FROM") {
      if (from_at != std::string::npos) return unchanged;
      from_at = w.start;
      from_end = w.end;
    } else if (w.upper == "WHERE") {
      if (where_at != std::string::npos || from_at == std::string::npos ||
          tail_at != std::string::npos) {
        return unchanged;
      }
      where_at = w.start;
      where_end = w.end;
    } else if (w.upper == "GROUP" || w.upper == "HAVING" ||
               w.upper == "ORDER" || w.upper == "LIMIT") {
      if (tail_at == std::string::npos) tail_at = w.start;
    } else if (w.upper == "UNION" || w.upper == "EXCEPT" ||
               w.upper == "INTERSECT" || w.upper == "JOIN" ||
               w.upper == "OR" || w.upper == "BETWEEN") {
      // OR breaks AND-commutativity at the split; BETWEEN's bare AND
      // would be mistaken for a conjunction; set ops change everything.
      return unchanged;
    }
  }
  if (from_at == std::string::npos) return unchanged;
  size_t end = text.size();
  size_t from_stop = where_at != std::string::npos
                         ? where_at
                         : (tail_at != std::string::npos ? tail_at : end);
  size_t where_stop = tail_at != std::string::npos ? tail_at : end;
  if (from_stop < from_end || (where_at != std::string::npos &&
                               (where_at < from_end || where_stop < where_end))) {
    return unchanged;
  }

  Piece select_piece = MakePiece(text, words[0].end, from_at);
  Piece from_piece = MakePiece(text, from_end, from_stop);
  Piece where_piece;
  bool have_where = where_at != std::string::npos;
  if (have_where) where_piece = MakePiece(text, where_end, where_stop);
  Piece tail_piece;
  bool have_tail = tail_at != std::string::npos;
  if (have_tail) tail_piece = MakePiece(text, tail_at, end);
  if (select_piece.text.empty() || from_piece.text.empty() ||
      (have_where && where_piece.text.empty())) {
    return unchanged;
  }

  // FROM list: sort by (table, alias) — unless the projection contains a
  // top-level '*', whose expansion order IS the FROM order.
  std::vector<Piece> from_items = SplitTopLevel(from_piece, ',');
  std::vector<std::string> from_keys(from_items.size());
  for (size_t i = 0; i < from_items.size(); ++i) {
    if (!ParseFromItem(from_items[i], &from_keys[i])) return unchanged;
  }
  bool select_has_star = false;
  {
    size_t depth = 0;
    for (char c : select_piece.text) {
      if (c == '(') ++depth;
      if (c == ')' && depth > 0) --depth;
      if (c == '*' && depth == 0) select_has_star = true;
    }
  }
  if (!select_has_star) {
    std::vector<size_t> order(from_items.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return from_keys[a] < from_keys[b];
    });
    std::vector<Piece> sorted;
    sorted.reserve(from_items.size());
    for (size_t idx : order) sorted.push_back(std::move(from_items[idx]));
    from_items = std::move(sorted);
  }

  // WHERE: orient equalities, then stable-sort the AND conjuncts by text.
  std::vector<Piece> conjuncts;
  std::string and_spelling = "AND";
  if (have_where) {
    // Split at top-level AND words (BETWEEN was already rejected above).
    std::vector<Word> wwords = ScanWords(where_piece.text);
    std::vector<std::pair<size_t, size_t>> and_spans;
    for (const Word& w : wwords) {
      if (w.depth == 0 && w.upper == "AND") and_spans.push_back({w.start, w.end});
    }
    if (!and_spans.empty()) {
      and_spelling = where_piece.text.substr(
          and_spans[0].first, and_spans[0].second - and_spans[0].first);
    }
    size_t begin = 0;
    size_t pi = 0;
    auto take = [&](size_t stop) {
      Piece c;
      c.text = Trim(where_piece.text.substr(begin, stop - begin));
      for (size_t i = begin; i < stop; ++i) {
        if (where_piece.text[i] == '?') c.params.push_back(where_piece.params[pi++]);
      }
      conjuncts.push_back(std::move(c));
    };
    for (const auto& span : and_spans) {
      take(span.first);
      begin = span.second;
    }
    take(where_piece.text.size());
    for (Piece& c : conjuncts) {
      if (c.text.empty()) return unchanged;
      c = OrientEquality(std::move(c));
    }
    std::stable_sort(conjuncts.begin(), conjuncts.end(),
                     [](const Piece& a, const Piece& b) {
                       return a.text < b.text;
                     });
  }

  // Reassemble, preserving the original keyword spellings so an
  // already-canonical query round-trips to the identical text.
  std::string select_kw = text.substr(words[0].start, words[0].end - words[0].start);
  std::string from_kw = text.substr(from_at, from_end - from_at);
  std::string out = select_kw + " " + select_piece.text + " " + from_kw + " ";
  std::vector<size_t> param_order = select_piece.params;
  for (size_t i = 0; i < from_items.size(); ++i) {
    if (i > 0) out += ", ";
    out += from_items[i].text;
  }
  if (have_where) {
    out += " " + text.substr(where_at, where_end - where_at) + " ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i > 0) out += " " + and_spelling + " ";
      out += conjuncts[i].text;
      param_order.insert(param_order.end(), conjuncts[i].params.begin(),
                         conjuncts[i].params.end());
    }
  }
  if (have_tail) {
    out += " " + tail_piece.text;
    param_order.insert(param_order.end(), tail_piece.params.begin(),
                       tail_piece.params.end());
  }
  if (out == text) return unchanged;

  CanonicalizedTemplate result;
  result.tmpl.text = std::move(out);
  result.changed = true;
  result.param_order = std::move(param_order);
  return result;
}

CanonicalizedTemplate ApplyCanonicalForm(const CanonicalizedTemplate& form,
                                         SqlTemplate masked) {
  CanonicalizedTemplate result;
  if (!form.changed) {
    result.tmpl = std::move(masked);
    return result;
  }
  result.tmpl.text = form.tmpl.text;
  result.tmpl.params.reserve(form.param_order.size());
  for (size_t idx : form.param_order) {
    result.tmpl.params.push_back(std::move(masked.params[idx]));
  }
  result.changed = true;
  result.param_order = form.param_order;
  return result;
}

Result<std::string> RenderTemplate(const SqlTemplate& tmpl) {
  std::string out;
  out.reserve(tmpl.text.size() + tmpl.params.size() * 8);
  size_t next = 0;
  for (char c : tmpl.text) {
    if (c != '?') {
      out.push_back(c);
      continue;
    }
    if (next >= tmpl.params.size()) {
      return Status::InvalidArgument("template has more '?' than parameters");
    }
    const Value& v = tmpl.params[next++];
    switch (v.type()) {
      case TypeId::kInt64:
        out += std::to_string(v.AsInt64());
        break;
      case TypeId::kDouble: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
        std::string d = buf;
        // The masker only understands digits[.digits]; exponents, inf and
        // nan cannot be spelled back faithfully.
        if (d.find_first_of("eEnN-") != std::string::npos) {
          return Status::InvalidArgument("double literal is not renderable");
        }
        if (d.find('.') == std::string::npos) d += ".0";
        out += d;
        break;
      }
      case TypeId::kString: {
        out.push_back('\'');
        for (char s : v.AsString()) {
          out.push_back(s);
          if (s == '\'') out.push_back('\'');
        }
        out.push_back('\'');
        break;
      }
      default:
        return Status::InvalidArgument("parameter type is not renderable");
    }
  }
  if (next != tmpl.params.size()) {
    return Status::InvalidArgument("template has fewer '?' than parameters");
  }
  return out;
}

}  // namespace beas
