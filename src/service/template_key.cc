#include "service/template_key.h"

#include <algorithm>
#include <unordered_map>

#include "bounded/attr_binding.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace beas {

QueryTemplate BuildQueryTemplate(const SqlTemplate& sql_template,
                                 const BoundQuery& query) {
  QueryTemplate out;
  out.canonical = sql_template.text;
  out.hash = HashString(out.canonical);
  out.param_count = sql_template.params.size();

  for (const BoundAtom& atom : query.atoms) {
    std::string table = ToLower(atom.table->name());
    if (std::find(out.tables.begin(), out.tables.end(), table) ==
        out.tables.end()) {
      out.tables.push_back(std::move(table));
    }
  }

  // Cacheability: a template's plan is value-independent iff every
  // attribute equivalence class is fed constants by at most one predicate.
  // With two or more (x = ?i AND x = ?j, or two IN lists on one join
  // class), the class's constant set is the *intersection* of the
  // parameter values: satisfiability, list arities and therefore deduced
  // bounds all change from instance to instance.
  AttrBindingAnalysis binding(query);
  std::unordered_map<size_t, size_t> constant_sources;  // class root -> count
  for (const Conjunct& c : query.conjuncts) {
    if (c.cls != ConjunctClass::kEqConst && c.cls != ConjunctClass::kInConst) {
      continue;
    }
    size_t root = binding.ClassOf(query.GlobalIndex(c.lhs));
    if (++constant_sources[root] > 1) {
      out.cacheable = false;
      out.uncacheable_reason =
          "attribute class of " + query.AttrName(c.lhs) +
          " is constrained by multiple constant predicates; coverage and "
          "bounds depend on the parameter values";
      break;
    }
  }
  return out;
}

std::shared_ptr<const CanonicalizedTemplate> CanonicalFormMemo::Get(
    const std::string& masked_text) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = forms_.find(masked_text);
    if (it != forms_.end()) return it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto form = std::make_shared<const CanonicalizedTemplate>(
      CanonicalizeTemplateText(masked_text));
  if (capacity_ == 0) return form;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (forms_.size() >= capacity_ && forms_.count(masked_text) == 0) {
    forms_.clear();
  }
  // A racing first sight may have inserted it already; either copy is the
  // same pure function of the text.
  return forms_.emplace(masked_text, std::move(form)).first->second;
}

size_t CanonicalFormMemo::entries() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return forms_.size();
}

Result<TemplateInfo> PrepareTemplate(const std::string& sql,
                                     CanonicalFormMemo* memo) {
  BEAS_ASSIGN_OR_RETURN(SqlTemplate masked, MaskSqlLiterals(sql));
  std::shared_ptr<const CanonicalizedTemplate> form = memo->Get(masked.text);
  CanonicalizedTemplate canon = ApplyCanonicalForm(*form, std::move(masked));
  TemplateInfo info;
  info.masked = std::move(canon.tmpl);
  info.canonicalized = canon.changed;
  return info;
}

}  // namespace beas
