#include "storage/catalog.h"

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "storage/column_file.h"
#include "telemetry/trace.h"

namespace sitstats {

namespace {

/// Maps and verifies every colfile of `pending` and assembles its table.
Result<Table> LoadPendingTable(const PendingTable& pending) {
  telemetry::TraceSpan span("storage.table.load");
  span.AddAttribute("table", pending.name);
  std::vector<Column> columns;
  columns.reserve(pending.colfiles.size());
  for (size_t c = 0; c < pending.colfiles.size(); ++c) {
    const ColumnDef& def = pending.schema.column(c);
    const std::string& path = pending.colfiles[c];
    SITSTATS_ASSIGN_OR_RETURN(Column column, ReadColumnFile(def.name, path));
    if (column.type() != def.type) {
      return Status::InvalidArgument(
          path + ": file type " + ValueTypeToString(column.type()) +
          " disagrees with manifest type " + ValueTypeToString(def.type));
    }
    columns.push_back(std::move(column));
  }
  // FromColumns runs Table::CheckConsistent.
  SITSTATS_ASSIGN_OR_RETURN(
      Table table,
      Table::FromColumns(pending.name, pending.schema, std::move(columns)));
  if (table.num_rows() != pending.num_rows) {
    return Status::InvalidArgument(
        "table " + pending.name + ": manifest promises " +
        std::to_string(pending.num_rows) + " rows, colfiles hold " +
        std::to_string(table.num_rows()));
  }
  return table;
}

}  // namespace

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
  if (cols.size() == 1) {
    const Column& column = *cols.front();
    WeightTable counts = WeightTable::ForColumn(column);
    if (column.type() == ValueType::kInt64) {
      for (int64_t v : column.int64_data()) {
        counts.Add(static_cast<double>(v), 1.0);
      }
    } else {
      for (double v : column.double_data()) counts.Add(v, 1.0);
    }
    counts.Compact();
    return counts;
  }
  WeightTable counts(cols.size());
  std::vector<double> key(cols.size());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t c = 0; c < cols.size(); ++c) {
      key[c] = cols[c]->GetNumeric(row);
    }
    counts.Add(key.data(), 1.0);
  }
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

Status Catalog::AddSlot(const std::string& name,
                        std::unique_ptr<TableSlot> slot) {
  SITSTATS_FAULT_SITE("storage.catalog.add_table");
  WriterLock lock(mu_);
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table " + name);
  }
  tables_[name] = std::move(slot);
  return Status::OK();
}

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  const std::string name = table->name();
  return AddSlot(name, std::make_unique<TableSlot>(std::move(table)));
}

Status Catalog::AddPendingTable(PendingTable pending) {
  if (pending.colfiles.size() != pending.schema.num_columns()) {
    return Status::InvalidArgument(
        "table " + pending.name + ": " +
        std::to_string(pending.colfiles.size()) + " colfiles for " +
        std::to_string(pending.schema.num_columns()) + " columns");
  }
  const std::string name = pending.name;
  return AddSlot(name, std::make_unique<TableSlot>(std::move(pending)));
}

Result<Table*> Catalog::CreateTable(const std::string& name,
                                    const Schema& schema) {
  WriterLock lock(mu_);
  if (tables_.contains(name)) {
    return Status::AlreadyExists("table " + name);
  }
  auto table = std::make_unique<Table>(name, schema);
  Table* raw = table.get();
  tables_[name] = std::make_unique<TableSlot>(std::move(table));
  return raw;
}

Result<Table*> Catalog::LoadedTable(const std::string& name) const {
  TableSlot* slot = nullptr;
  {
    ReaderLock lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound("table " + name);
    slot = it->second.get();
  }
  // A slot is never removed, so it is used with the registry unlocked:
  // loading one table stalls no lookup of another.
  MutexLock lock(slot->mu);
  if (slot->table == nullptr) {
    SITSTATS_ASSIGN_OR_RETURN(Table table, LoadPendingTable(slot->pending));
    slot->table = std::make_unique<Table>(std::move(table));
  }
  return slot->table.get();
}

const Table* Catalog::PublishedTable(TableSlot& slot) {
  MutexLock lock(slot.mu);
  return slot.table.get();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  SITSTATS_ASSIGN_OR_RETURN(Table* table, LoadedTable(name));
  return static_cast<const Table*>(table);
}

Result<Table*> Catalog::GetMutableTable(const std::string& name) {
  return LoadedTable(name);
}

std::vector<std::string> Catalog::TableNames() const {
  ReaderLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, slot] : tables_) names.push_back(name);
  return names;
}

Result<const WeightTable*> Catalog::EnsureIndex(
    const std::string& table_name,
    const std::vector<std::string>& columns) const {
  {
    ReaderLock lock(mu_);
    auto it = indexes_.find({table_name, columns});
    if (it != indexes_.end()) return &it->second;
  }
  // Count outside the lock; losing the insertion race below just discards
  // this copy.
  telemetry::TraceSpan span("storage.build_index");
  span.AddAttribute("column", table_name + "." + Join(columns, ","));
  SITSTATS_ASSIGN_OR_RETURN(const Table* table, GetTable(table_name));
  SITSTATS_FAULT_SITE("storage.index.build");
  SITSTATS_ASSIGN_OR_RETURN(WeightTable index, CountKeys(*table, columns));
  span.AddAttribute("layout", index.dense() ? "dense" : "hash");
  span.AddAttribute("keys", static_cast<uint64_t>(index.size()));
  // Registration site sits between the build and the registry insert: a
  // failure here must leave the catalog without any trace of the new
  // index (the fault sweep asserts ValidateConsistency afterwards).
  SITSTATS_FAULT_SITE("storage.catalog.register_index");
  WriterLock lock(mu_);
  auto [it, inserted] =
      indexes_.try_emplace({table_name, columns}, std::move(index));
  (void)inserted;
  return &it->second;
}

Status Catalog::ValidateConsistency() const {
  ReaderLock lock(mu_);
  for (const auto& [name, slot] : tables_) {
    if (slot == nullptr) {
      return Status::Internal("catalog maps " + name + " to a null slot");
    }
    const Table* table = PublishedTable(*slot);
    if (table == nullptr) continue;  // pending: nothing loaded to check
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
    const auto& [table_name, columns] = key;
    const std::string name = table_name + "." + Join(columns, ",");
    auto it = tables_.find(table_name);
    const Table* covered =
        it == tables_.end() ? nullptr : PublishedTable(*it->second);
    if (covered == nullptr) {
      return Status::Internal(
          "index " + name + " covers a table the catalog has not loaded");
    }
    // The recount holds exactly the columns' keys, each with a nonzero
    // count. So equal key counts and equal lookups for every row's key
    // mean the index holds the same keys with the same counts.
    const Table& table = *covered;
    SITSTATS_ASSIGN_OR_RETURN(WeightTable recount, CountKeys(table, columns));
    if (recount.size() != index.size()) {
      return Status::Internal("index " + name + ": " +
                              std::to_string(index.size()) +
                              " entries but the columns have " +
                              std::to_string(recount.size()) +
                              " distinct keys");
    }
    std::vector<std::vector<double>> keys;
    std::vector<const double*> probes;
    keys.reserve(columns.size());
    for (const std::string& column_name : columns) {
      SITSTATS_ASSIGN_OR_RETURN(const Column* column,
                                table.GetColumn(column_name));
      keys.push_back(column->ToNumericVector());
      probes.push_back(keys.back().data());
    }
    std::vector<double> expected(table.num_rows());
    std::vector<double> actual(table.num_rows());
    recount.Lookup(probes.data(), table.num_rows(), expected.data());
    index.Lookup(probes.data(), table.num_rows(), actual.data());
    if (actual != expected) {
      return Status::Internal("index " + name +
                              ": entries disagree with a recount of its "
                              "columns");
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
