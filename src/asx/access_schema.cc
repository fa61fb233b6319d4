#include "asx/access_schema.h"

#include "common/string_util.h"

namespace beas {

Status AccessSchema::Add(AccessConstraint constraint) {
  for (const AccessConstraint& existing : constraints_) {
    if (existing == constraint) {
      return Status::AlreadyExists("duplicate access constraint " +
                                   constraint.ToString());
    }
    if (!constraint.name.empty() && existing.name == constraint.name) {
      return Status::AlreadyExists("duplicate constraint name '" +
                                   constraint.name + "'");
    }
  }
  if (constraint.name.empty()) {
    constraint.name = "psi" + std::to_string(constraints_.size() + 1);
  }
  constraints_.push_back(std::move(constraint));
  return Status::OK();
}

std::vector<const AccessConstraint*> AccessSchema::ForTable(
    const std::string& table) const {
  std::vector<const AccessConstraint*> out;
  for (const AccessConstraint& c : constraints_) {
    if (EqualsIgnoreCase(c.table, table)) out.push_back(&c);
  }
  return out;
}

Result<const AccessConstraint*> AccessSchema::Find(
    const std::string& name) const {
  for (const AccessConstraint& c : constraints_) {
    if (c.name == name) return &c;
  }
  return Status::NotFound("no access constraint named '" + name + "'");
}

std::string AccessSchema::ToString() const {
  std::string out;
  for (const AccessConstraint& c : constraints_) {
    out += c.ToString();
    out += "\n";
  }
  return out;
}

Status AsCatalog::Register(AccessConstraint constraint) {
  BEAS_ASSIGN_OR_RETURN(TableInfo * table,
                        db_->catalog()->GetTable(constraint.table));
  // The table's first constraint nominates the heap's shard key: rows
  // inserted from now on hash-route by its first X-column, so writes with
  // distinct key values spread across per-shard write locks. Placement is
  // a locality hint only (the heap's slot directory records every row's
  // location), so rows loaded before this point simply stay where the
  // row-hash fallback put them.
  if (table->heap()->shard_key_col() < 0) {
    Result<std::vector<size_t>> x_cols =
        constraint.ResolveX(table->heap()->schema());
    if (x_cols.ok() && !x_cols->empty()) {
      table->heap()->DeclareShardKey((*x_cols)[0]);
    }
  }
  BEAS_RETURN_NOT_OK(schema_.Add(constraint));
  const AccessConstraint& added = schema_.constraints().back();
  auto index = AcIndex::Build(added, *table->heap());
  if (!index.ok()) {
    // Roll back the schema entry to keep schema_ and indexes_ in sync.
    // (Add() appends, so the failing constraint is last.)
    AccessSchema rebuilt;
    for (size_t i = 0; i + 1 < schema_.constraints().size(); ++i) {
      (void)rebuilt.Add(schema_.constraints()[i]);
    }
    schema_ = std::move(rebuilt);
    return index.status();
  }
  indexes_.push_back(std::move(index).ValueOrDie());
  NotifyChange(ChangeKind::kConstraintRegistered, added.table, added.name);
  return Status::OK();
}

Status AsCatalog::AdoptRestored(AccessConstraint constraint,
                                std::unique_ptr<AcIndex> index) {
  BEAS_RETURN_NOT_OK(schema_.Add(std::move(constraint)));
  indexes_.push_back(std::move(index));
  return Status::OK();
}

Status AsCatalog::Unregister(const std::string& name) {
  for (size_t i = 0; i < schema_.constraints().size(); ++i) {
    if (schema_.constraints()[i].name == name) {
      std::string table = schema_.constraints()[i].table;
      AccessSchema rebuilt;
      for (size_t j = 0; j < schema_.constraints().size(); ++j) {
        if (j != i) (void)rebuilt.Add(schema_.constraints()[j]);
      }
      schema_ = std::move(rebuilt);
      indexes_.erase(indexes_.begin() + static_cast<ptrdiff_t>(i));
      NotifyChange(ChangeKind::kConstraintUnregistered, table, name);
      return Status::OK();
    }
  }
  return Status::NotFound("no access constraint named '" + name + "'");
}

void AsCatalog::NotifyChange(ChangeKind kind, const std::string& table,
                             const std::string& name) const {
  for (const ChangeListener& listener : listeners_) {
    listener(kind, table, name);
  }
}

AcIndex* AsCatalog::IndexFor(const std::string& constraint_name) {
  for (auto& index : indexes_) {
    if (index->constraint().name == constraint_name) return index.get();
  }
  return nullptr;
}

const AcIndex* AsCatalog::IndexFor(const std::string& constraint_name) const {
  for (const auto& index : indexes_) {
    if (index->constraint().name == constraint_name) return index.get();
  }
  return nullptr;
}

std::vector<AcIndex*> AsCatalog::IndexesForTable(const std::string& table) {
  std::vector<AcIndex*> out;
  for (auto& index : indexes_) {
    if (EqualsIgnoreCase(index->constraint().table, table)) {
      out.push_back(index.get());
    }
  }
  return out;
}

uint64_t AsCatalog::TotalIndexBytes() const {
  uint64_t total = 0;
  for (const auto& index : indexes_) total += index->ApproxBytes();
  return total;
}

Status AsCatalog::AdjustLimit(const std::string& name, uint64_t new_n) {
  for (size_t i = 0; i < schema_.constraints().size(); ++i) {
    if (schema_.constraints()[i].name == name) {
      AccessSchema rebuilt;
      for (size_t j = 0; j < schema_.constraints().size(); ++j) {
        AccessConstraint c = schema_.constraints()[j];
        if (j == i) c.limit_n = new_n;
        (void)rebuilt.Add(std::move(c));
      }
      schema_ = std::move(rebuilt);
      // The index structure is bound-agnostic; keep its constraint copy in
      // sync so AcIndex::Conforms() uses the new bound.
      indexes_[i]->set_limit(new_n);
      NotifyChange(ChangeKind::kLimitAdjusted,
                   schema_.constraints()[i].table, name);
      return Status::OK();
    }
  }
  return Status::NotFound("no access constraint named '" + name + "'");
}

std::string AsCatalog::MetadataReport() const {
  std::string out =
      StringPrintf("%-8s %-52s %10s %10s %10s %12s %s\n", "name",
                   "constraint", "keys", "entries", "maxbucket", "bytes",
                   "conforms");
  for (size_t i = 0; i < schema_.constraints().size(); ++i) {
    const AccessConstraint& c = schema_.constraints()[i];
    const AcIndex& index = *indexes_[i];
    out += StringPrintf(
        "%-8s %-52s %10zu %10zu %10zu %12llu %s\n", c.name.c_str(),
        c.ToString().c_str(), index.NumKeys(), index.NumEntries(),
        index.MaxBucketSize(),
        static_cast<unsigned long long>(index.ApproxBytes()),
        index.Conforms() ? "yes" : "NO");
  }
  return out;
}

}  // namespace beas
