#include "storage/catalog.h"

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "telemetry/trace.h"

namespace sitstats {

Result<WeightTable> CountKeys(const Table& table,
                              const std::vector<std::string>& columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("counting keys needs columns");
  }
  std::vector<const Column*> cols;
  for (const std::string& name : columns) {
    SITSTATS_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(name));
    if (col->type() == ValueType::kString) {
      return Status::InvalidArgument("cannot index string column " +
                                     table.name() + "." + name);
    }
    cols.push_back(col);
  }
  WeightTable counts(cols.size());
  std::vector<double> key(cols.size());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t c = 0; c < cols.size(); ++c) {
      key[c] = cols[c]->GetNumeric(row);
    }
    counts.Add(key.data(), 1.0);
  }
  counts.Compact();
  return counts;
}

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

Result<const WeightTable*> Catalog::EnsureIndex(
    const std::string& table_name, const std::string& column_name) {
  {
    ReaderLock lock(mu_);
    auto it = indexes_.find({table_name, column_name});
    if (it != indexes_.end()) return &it->second;
  }
  // Count outside the lock; losing the insertion race below just discards
  // this copy.
  telemetry::TraceSpan span("storage.build_index");
  span.AddAttribute("column", table_name + "." + column_name);
  SITSTATS_ASSIGN_OR_RETURN(const Table* table, GetTable(table_name));
  SITSTATS_FAULT_SITE("storage.index.build");
  SITSTATS_ASSIGN_OR_RETURN(WeightTable index,
                            CountKeys(*table, {column_name}));
  // Registration site sits between the build and the registry insert: a
  // failure here must leave the catalog without any trace of the new
  // index (the fault sweep asserts ValidateConsistency afterwards).
  SITSTATS_FAULT_SITE("storage.catalog.register_index");
  WriterLock lock(mu_);
  auto [it, inserted] =
      indexes_.try_emplace({table_name, column_name}, std::move(index));
  (void)inserted;
  return &it->second;
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
    const std::string name = table_name + "." + column_name;
    auto it = tables_.find(table_name);
    if (it == tables_.end()) {
      return Status::Internal("index " + name +
                              " covers a table the catalog does not hold");
    }
    // The recount holds exactly the column's keys, each with a nonzero
    // count. So equal key counts and equal lookups for every row's key
    // mean the index holds the same keys with the same counts.
    const Table& table = *it->second;
    SITSTATS_ASSIGN_OR_RETURN(WeightTable recount,
                              CountKeys(table, {column_name}));
    if (recount.size() != index.size()) {
      return Status::Internal("index " + name + ": " +
                              std::to_string(index.size()) +
                              " entries but the column has " +
                              std::to_string(recount.size()) +
                              " distinct keys");
    }
    SITSTATS_ASSIGN_OR_RETURN(const Column* column,
                              table.GetColumn(column_name));
    const std::vector<double> keys = column->ToNumericVector();
    const double* probes = keys.data();
    std::vector<double> expected(keys.size());
    std::vector<double> actual(keys.size());
    recount.Lookup(&probes, keys.size(), expected.data());
    index.Lookup(&probes, keys.size(), actual.data());
    if (actual != expected) {
      return Status::Internal(
          "index " + name + ": entries disagree with a recount of the column");
    }
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
