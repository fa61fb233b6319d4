#include "binder/bound_query.h"

#include <algorithm>

namespace beas {

std::string Conjunct::ToString() const {
  return expr ? expr->ToString() : "<null>";
}

AttrRef BoundQuery::AttrOfGlobal(size_t global) const {
  AttrRef ref;
  for (size_t a = atoms.size(); a-- > 0;) {
    if (global >= atom_offsets[a]) {
      ref.atom = a;
      ref.col = global - atom_offsets[a];
      return ref;
    }
  }
  return ref;
}

std::vector<AttrRef> BoundQuery::AttrsUsed() const {
  std::vector<size_t> globals;
  auto collect = [&globals](const ExprPtr& e) {
    if (!e) return;
    std::vector<size_t> cols;
    e->CollectColumns(&cols);
    globals.insert(globals.end(), cols.begin(), cols.end());
  };
  for (const auto& c : conjuncts) collect(c.expr);
  for (const auto& o : outputs) collect(o.expr);
  for (const auto& g : group_by) collect(g);
  for (const auto& a : aggregates) collect(a.arg);
  std::sort(globals.begin(), globals.end());
  globals.erase(std::unique(globals.begin(), globals.end()), globals.end());
  std::vector<AttrRef> out;
  out.reserve(globals.size());
  for (size_t g : globals) out.push_back(AttrOfGlobal(g));
  return out;
}

std::string BoundQuery::AttrName(AttrRef a) const {
  return atoms[a.atom].alias + "." +
         atoms[a.atom].table->schema().ColumnAt(a.col).name;
}

std::string BoundQuery::ToString() const {
  std::string out = "BoundQuery{atoms=[";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += atoms[i].table->name();
    if (atoms[i].alias != atoms[i].table->name()) out += " " + atoms[i].alias;
  }
  out += "], conjuncts=[";
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conjuncts[i].ToString();
  }
  out += "], outputs=[";
  for (size_t i = 0; i < outputs.size(); ++i) {
    if (i > 0) out += ", ";
    out += outputs[i].name;
  }
  out += "]}";
  return out;
}

}  // namespace beas
