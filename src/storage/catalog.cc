#include "storage/catalog.h"

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "telemetry/trace.h"

namespace sitstats {

Catalog::Catalog(Catalog&& other) noexcept {
  // Moving is documented not-thread-safe, but take the source's writer
  // lock anyway: it is cheap, and it keeps the lock contract total — no
  // code path touches the guarded registries without their lock.
  WriterLock other_lock(other.mu_);
  tables_ = std::move(other.tables_);
  indexes_ = std::move(other.indexes_);
}

Catalog& Catalog::operator=(Catalog&& other) noexcept {
  if (this != &other) {
    // Both locks for contract totality (moving stays documented
    // not-thread-safe; these do not make concurrent moves correct).
    WriterLock this_lock(mu_);
    WriterLock other_lock(other.mu_);
    tables_ = std::move(other.tables_);
    indexes_ = std::move(other.indexes_);
  }
  return *this;
}

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  SITSTATS_FAULT_SITE("storage.catalog.add_table");
  const std::string& name = table->name();
  WriterLock lock(mu_);
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table " + name);
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

Result<Table*> Catalog::CreateTable(const std::string& name,
                                    const Schema& schema) {
  WriterLock lock(mu_);
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table " + name);
  }
  auto table = std::make_unique<Table>(name, schema);
  Table* raw = table.get();
  tables_[name] = std::move(table);
  return raw;
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  ReaderLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return static_cast<const Table*>(it->second.get());
}

Result<Table*> Catalog::GetMutableTable(const std::string& name) {
  ReaderLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return it->second.get();
}

std::vector<std::string> Catalog::TableNames() const {
  ReaderLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Status Catalog::BuildIndex(const std::string& table_name,
                           const std::string& column_name) {
  telemetry::TraceSpan span("storage.build_index");
  span.AddAttribute("column", table_name + "." + column_name);
  SITSTATS_ASSIGN_OR_RETURN(const Table* table, GetTable(table_name));
  SITSTATS_ASSIGN_OR_RETURN(SortedIndex index,
                            SortedIndex::Build(*table, column_name));
  SITSTATS_DCHECK_OK(index.CheckValid(*table));
  // Registration site sits between the build and the registry insert: a
  // failure here must leave the catalog without any trace of the new
  // index (the sweep asserts ValidateConsistency afterwards).
  SITSTATS_FAULT_SITE("storage.catalog.register_index");
  WriterLock lock(mu_);
  indexes_.insert_or_assign({table_name, column_name}, std::move(index));
  return Status::OK();
}

Result<const SortedIndex*> Catalog::EnsureIndex(
    const std::string& table_name, const std::string& column_name) {
  {
    ReaderLock lock(mu_);
    auto it = indexes_.find({table_name, column_name});
    if (it != indexes_.end()) return &it->second;
  }
  // Build outside the lock (sorting can be expensive); losing the
  // insertion race below just discards this copy.
  telemetry::TraceSpan span("storage.build_index");
  span.AddAttribute("column", table_name + "." + column_name);
  SITSTATS_ASSIGN_OR_RETURN(const Table* table, GetTable(table_name));
  SITSTATS_ASSIGN_OR_RETURN(SortedIndex index,
                            SortedIndex::Build(*table, column_name));
  SITSTATS_DCHECK_OK(index.CheckValid(*table));
  SITSTATS_FAULT_SITE("storage.catalog.register_index");
  WriterLock lock(mu_);
  auto [it, inserted] =
      indexes_.try_emplace({table_name, column_name}, std::move(index));
  (void)inserted;
  return &it->second;
}

Result<const SortedIndex*> Catalog::GetIndex(
    const std::string& table_name, const std::string& column_name) const {
  ReaderLock lock(mu_);
  auto it = indexes_.find({table_name, column_name});
  if (it == indexes_.end()) {
    return Status::NotFound("index on " + table_name + "." + column_name);
  }
  return &it->second;
}

bool Catalog::HasIndex(const std::string& table_name,
                       const std::string& column_name) const {
  ReaderLock lock(mu_);
  return indexes_.contains({table_name, column_name});
}

Status Catalog::ValidateConsistency() const {
  ReaderLock lock(mu_);
  for (const auto& [name, table] : tables_) {
    if (table == nullptr) {
      return Status::Internal("catalog maps " + name + " to a null table");
    }
    if (table->name() != name) {
      return Status::Internal("catalog maps " + name + " to a table named " +
                              table->name());
    }
    if (table->num_columns() != table->schema().num_columns()) {
      return Status::Internal("table " + name +
                              ": column count disagrees with its schema");
    }
    SITSTATS_RETURN_IF_ERROR(table->CheckConsistent());
  }
  for (const auto& [key, index] : indexes_) {
    const auto& [table_name, column_name] = key;
    if (index.table_name() != table_name ||
        index.column_name() != column_name) {
      return Status::Internal(
          "index registered as " + table_name + "." + column_name +
          " identifies itself as " + index.table_name() + "." +
          index.column_name());
    }
    auto it = tables_.find(table_name);
    if (it == tables_.end()) {
      return Status::Internal("index " + table_name + "." + column_name +
                              " covers a table the catalog does not hold");
    }
    SITSTATS_RETURN_IF_ERROR(index.CheckValid(*it->second));
  }
  return Status::OK();
}

Result<std::pair<const Table*, const Column*>> Catalog::ResolveColumn(
    const std::string& qualified_name) const {
  std::vector<std::string> parts = Split(qualified_name, '.');
  if (parts.size() != 2 || parts[0].empty() || parts[1].empty()) {
    return Status::InvalidArgument("expected Table.column, got " +
                                   qualified_name);
  }
  SITSTATS_ASSIGN_OR_RETURN(const Table* table, GetTable(parts[0]));
  SITSTATS_ASSIGN_OR_RETURN(const Column* column, table->GetColumn(parts[1]));
  return std::make_pair(table, column);
}

}  // namespace sitstats
