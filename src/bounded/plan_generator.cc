#include "bounded/plan_generator.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "bounded/attr_binding.h"
#include "common/hash.h"

namespace beas {

namespace {

constexpr uint64_t kBoundCap = 1ull << 60;  // saturation for bound arithmetic

/// Search nodes the branch-and-bound explores before it settles for the
/// best plan found so far.
constexpr uint64_t kMaxSearchNodes = 200000;

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kBoundCap / b) return kBoundCap;
  return a * b;
}

uint64_t SatAdd(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  return (s < a || s > kBoundCap) ? kBoundCap : s;
}

/// A constraint resolved against its atom's schema.
struct ResolvedConstraint {
  const AccessConstraint* constraint;
  std::vector<size_t> x_cols;
  std::vector<size_t> y_cols;
  uint64_t x_mask = 0;
  uint64_t y_mask = 0;
};

struct SearchAtom {
  TableInfo* table;
  uint64_t needed = 0;
  std::vector<ResolvedConstraint> constraints;
};

struct MaskVecHash {
  size_t operator()(const std::vector<uint64_t>& v) const {
    uint64_t seed = 0x8f3a1c95d27b60e1ULL;
    for (uint64_t m : v) HashCombine(&seed, HashInt64(m));
    return static_cast<size_t>(seed);
  }
};

struct StepChoice {
  size_t atom_pos;        // index into enabled-atom vector
  size_t constraint_idx;  // index into SearchAtom::constraints
};

}  // namespace

Result<GenerationResult> BoundedPlanGenerator::Generate(
    const BoundQuery& query) const {
  CoverageRequest request;
  request.query = &query;
  return Generate(request);
}

Result<GenerationResult> BoundedPlanGenerator::Generate(
    const CoverageRequest& request) const {
  const BoundQuery& query = *request.query;
  GenerationResult result;

  std::vector<bool> atom_enabled = request.atom_enabled;
  if (atom_enabled.empty()) atom_enabled.assign(query.atoms.size(), true);
  std::vector<bool> conjunct_enabled = request.conjunct_enabled;
  if (conjunct_enabled.empty()) {
    conjunct_enabled.assign(query.conjuncts.size(), true);
  }

  // Enabled atoms, in query order; positions index the search state.
  std::vector<size_t> atom_ids;
  for (size_t a = 0; a < query.atoms.size(); ++a) {
    if (atom_enabled[a]) atom_ids.push_back(a);
  }
  if (atom_ids.empty()) {
    result.covered = false;
    result.reason = "no atoms to cover";
    return result;
  }

  AttrBindingAnalysis binding(query, conjunct_enabled);
  if (binding.unsatisfiable()) {
    // Contradictory equality predicates: the answer is empty on every
    // instance; an empty plan (fetch nothing) is trivially bounded.
    result.covered = true;
    result.unsatisfiable = true;
    result.plan.total_bound = 0;
    result.plan.total_access_bound = 0;
    return result;
  }

  // Per-atom needed column masks: every referenced attribute of the query
  // restricted to this atom (the partial optimizer needs cross-fragment
  // join attributes too; AttrsUsed covers them since join conjuncts are
  // part of the query).
  std::vector<SearchAtom> atoms(atom_ids.size());
  for (size_t p = 0; p < atom_ids.size(); ++p) {
    size_t a = atom_ids[p];
    atoms[p].table = query.atoms[a].table;
    if (atoms[p].table->schema().NumColumns() > 64) {
      result.covered = false;
      result.reason = "table " + atoms[p].table->name() +
                      " has more than 64 columns (checker limit)";
      return result;
    }
  }
  for (const AttrRef& attr : query.AttrsUsed()) {
    for (size_t p = 0; p < atom_ids.size(); ++p) {
      if (atom_ids[p] == attr.atom) {
        atoms[p].needed |= (1ull << attr.col);
      }
    }
  }

  // Resolve the applicable constraints per atom.
  for (size_t p = 0; p < atoms.size(); ++p) {
    const Schema& schema = atoms[p].table->schema();
    for (const AccessConstraint* c : schema_->ForTable(atoms[p].table->name())) {
      ResolvedConstraint rc;
      rc.constraint = c;
      auto x = c->ResolveX(schema);
      auto y = c->ResolveY(schema);
      if (!x.ok() || !y.ok()) continue;  // stale constraint; skip
      rc.x_cols = std::move(x).ValueOrDie();
      rc.y_cols = std::move(y).ValueOrDie();
      for (size_t col : rc.x_cols) rc.x_mask |= (1ull << col);
      for (size_t col : rc.y_cols) rc.y_mask |= (1ull << col);
      atoms[p].constraints.push_back(std::move(rc));
    }
  }

  // Position lookup: atom id -> enabled position.
  std::unordered_map<size_t, size_t> atom_pos;
  for (size_t p = 0; p < atom_ids.size(); ++p) atom_pos[atom_ids[p]] = p;

  // --- Availability helpers over a state (fetched masks per atom). ---
  auto class_materialized = [&](size_t global,
                                const std::vector<uint64_t>& masks) {
    for (size_t member : binding.MembersOf(global)) {
      AttrRef ref = query.AttrOfGlobal(member);
      auto it = atom_pos.find(ref.atom);
      if (it == atom_pos.end()) continue;
      if (masks[it->second] & (1ull << ref.col)) return true;
    }
    return false;
  };

  // Multiplier the step contributes per X attribute (0 = unavailable,
  // otherwise the IN-list factor or 1).
  auto key_factor = [&](size_t atom_id, size_t col,
                        const std::vector<uint64_t>& masks) -> uint64_t {
    size_t global = query.atom_offsets[atom_id] + col;
    const std::vector<Value>* consts = binding.ConstantsOf(global);
    if (consts != nullptr && consts->size() == 1) return 1;
    if (class_materialized(global, masks)) return 1;
    if (consts != nullptr && consts->size() > 1) {
      return static_cast<uint64_t>(consts->size());
    }
    return 0;  // unavailable
  };

  // --- Branch-and-bound DFS with memoization. ---
  struct Best {
    bool found = false;
    uint64_t cost = std::numeric_limits<uint64_t>::max();
    std::vector<StepChoice> steps;
  } best;
  std::unordered_map<std::vector<uint64_t>, uint64_t, MaskVecHash> visited;
  uint64_t nodes = 0;
  // Track the most-covered state for diagnostics.
  size_t best_covered_atoms = 0;

  auto goal = [&](const std::vector<uint64_t>& masks) {
    for (size_t p = 0; p < atoms.size(); ++p) {
      if (masks[p] == 0) return false;  // atom must be anchored by a fetch
      if (atoms[p].needed & ~masks[p]) return false;
    }
    return true;
  };

  std::vector<StepChoice> current;
  auto dfs = [&](auto&& self, std::vector<uint64_t>& masks, uint64_t bound,
                 uint64_t cost) -> void {
    if (nodes++ > kMaxSearchNodes) return;
    if (cost >= best.cost) return;
    auto [it, inserted] = visited.try_emplace(masks, cost);
    if (!inserted) {
      if (it->second <= cost) return;
      it->second = cost;
    }
    size_t covered = 0;
    for (size_t p = 0; p < atoms.size(); ++p) {
      if (masks[p] != 0 && !(atoms[p].needed & ~masks[p])) ++covered;
    }
    best_covered_atoms = std::max(best_covered_atoms, covered);
    if (goal(masks)) {
      best.found = true;
      best.cost = cost;
      best.steps = current;
      return;
    }

    // Enumerate applicable steps, cheapest projected bound first.
    struct Branch {
      StepChoice choice;
      uint64_t new_bound;
      uint64_t new_cost;
    };
    std::vector<Branch> branches;
    for (size_t p = 0; p < atoms.size(); ++p) {
      // One fetch per atom: joining two Y-projections of the same relation
      // on the key alone is not equivalent to projecting the relation (it
      // can fabricate attribute combinations that never co-occur in one
      // tuple), so a single constraint must cover all of the atom's needed
      // columns. This matches the plan shapes of paper Example 2.
      if (masks[p] != 0) continue;
      for (size_t k = 0; k < atoms[p].constraints.size(); ++k) {
        const ResolvedConstraint& rc = atoms[p].constraints[k];
        if (atoms[p].needed & ~(rc.x_mask | rc.y_mask)) continue;
        uint64_t factor = 1;
        bool applicable = true;
        for (size_t col : rc.x_cols) {
          uint64_t f = key_factor(atom_ids[p], col, masks);
          if (f == 0) {
            applicable = false;
            break;
          }
          factor = SatMul(factor, f);
        }
        if (!applicable) continue;
        uint64_t nb = SatMul(SatMul(bound, factor), rc.constraint->limit_n);
        uint64_t nc = SatAdd(cost, nb);
        if (nc >= best.cost) continue;
        branches.push_back({{p, k}, nb, nc});
      }
    }
    std::sort(branches.begin(), branches.end(),
              [](const Branch& a, const Branch& b) {
                return a.new_cost < b.new_cost;
              });
    for (const Branch& br : branches) {
      const ResolvedConstraint& rc =
          atoms[br.choice.atom_pos].constraints[br.choice.constraint_idx];
      uint64_t saved = masks[br.choice.atom_pos];
      masks[br.choice.atom_pos] |= rc.x_mask | rc.y_mask;
      current.push_back(br.choice);
      self(self, masks, br.new_bound, br.new_cost);
      current.pop_back();
      masks[br.choice.atom_pos] = saved;
    }
  };

  std::vector<uint64_t> init(atoms.size(), 0);
  dfs(dfs, init, 1, 0);
  result.nodes_explored = nodes;

  if (!best.found) {
    result.covered = false;
    result.reason =
        "not covered by the access schema: " +
        std::to_string(best_covered_atoms) + "/" +
        std::to_string(atoms.size()) +
        " atoms coverable; no fetch sequence binds every referenced "
        "attribute";
    return result;
  }

  // --- Replay the winning step sequence into a BoundedPlan. ---
  BoundedPlan plan;
  std::vector<uint64_t> masks(atoms.size(), 0);
  std::unordered_map<size_t, size_t> layout_pos;  // global idx -> T position
  std::vector<bool> conjunct_done(query.conjuncts.size(), false);
  uint64_t bound = 1;

  // Literal-only conjuncts (no column references) are evaluated up front.
  for (size_t ci = 0; ci < query.conjuncts.size(); ++ci) {
    if (conjunct_enabled[ci] && query.conjuncts[ci].attrs.empty()) {
      plan.initial_conjuncts.push_back(ci);
      conjunct_done[ci] = true;
    }
  }

  auto find_from_t = [&](size_t global) -> int64_t {
    for (size_t member : binding.MembersOf(global)) {
      auto it = layout_pos.find(member);
      if (it != layout_pos.end()) return static_cast<int64_t>(it->second);
    }
    return -1;
  };

  for (const StepChoice& choice : best.steps) {
    const SearchAtom& atom = atoms[choice.atom_pos];
    const ResolvedConstraint& rc = atom.constraints[choice.constraint_idx];
    size_t atom_id = atom_ids[choice.atom_pos];

    FetchStep step;
    step.atom = atom_id;
    step.constraint = *rc.constraint;
    step.x_cols = rc.x_cols;
    step.y_cols = rc.y_cols;

    uint64_t factor = 1;
    for (size_t col : rc.x_cols) {
      size_t global = query.atom_offsets[atom_id] + col;
      const std::vector<Value>* consts = binding.ConstantsOf(global);
      KeySource source;
      if (consts != nullptr && consts->size() == 1) {
        source.kind = KeySource::Kind::kConstant;
        source.constant = (*consts)[0];
      } else {
        int64_t pos = find_from_t(global);
        if (pos >= 0) {
          source.kind = KeySource::Kind::kFromT;
          source.t_column = static_cast<size_t>(pos);
        } else {
          source.kind = KeySource::Kind::kConstantList;
          source.list = *consts;
          factor = SatMul(factor, consts->size());
        }
      }
      step.key_sources.push_back(std::move(source));
    }

    // Columns this step adds to T (X first, then Y).
    auto add_col = [&](size_t col) {
      size_t global = query.atom_offsets[atom_id] + col;
      if (layout_pos.count(global)) return;
      layout_pos[global] = plan.layout.size();
      plan.layout.push_back(AttrRef{atom_id, col});
      step.added_columns.push_back(AttrRef{atom_id, col});
    };
    for (size_t col : rc.x_cols) add_col(col);
    for (size_t col : rc.y_cols) add_col(col);
    masks[choice.atom_pos] |= rc.x_mask | rc.y_mask;

    bound = SatMul(SatMul(bound, factor), rc.constraint->limit_n);
    step.step_bound = bound;
    plan.total_access_bound = SatAdd(plan.total_access_bound, bound);

    // Conjuncts that become evaluable after this step.
    for (size_t ci = 0; ci < query.conjuncts.size(); ++ci) {
      if (conjunct_done[ci] || !conjunct_enabled[ci]) continue;
      const Conjunct& c = query.conjuncts[ci];
      bool evaluable = !c.attrs.empty();
      for (const AttrRef& attr : c.attrs) {
        if (!layout_pos.count(query.GlobalIndex(attr))) {
          evaluable = false;
          break;
        }
      }
      if (evaluable) {
        step.conjuncts_after.push_back(ci);
        conjunct_done[ci] = true;
      }
    }
    plan.steps.push_back(std::move(step));
  }
  plan.total_bound = bound;

  result.covered = true;
  result.plan = std::move(plan);
  return result;
}

}  // namespace beas
