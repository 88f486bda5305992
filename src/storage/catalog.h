#ifndef SITSTATS_STORAGE_CATALOG_H_
#define SITSTATS_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/table.h"
#include "storage/weight_table.h"

namespace sitstats {

/// The exact key -> row-count table over `columns` of `table`, built in
/// one pass over the rows: a key is the tuple of a row's values in
/// `columns` order. Rows with a NaN in any of the columns are not counted
/// (NaN joins nothing). Fails on an empty column list, an unknown column
/// or a string column. This is the catalog's index over one column and
/// the composite exact m-Oracle's table over two or more.
Result<WeightTable> CountKeys(const Table& table,
                              const std::vector<std::string>& columns);

/// The database: owns tables and their key-count indexes. Column
/// references are resolved through the catalog using "Table.column"
/// qualified names.
///
/// Thread safety: the table/index registries are guarded by a
/// reader-writer lock, so lookups (GetTable, EnsureIndex, ResolveColumn,
/// ...) are safe concurrently with each other and with registrations — the
/// parallel schedule executor scans several tables at once. Returned
/// Table/WeightTable pointers stay valid for the catalog's lifetime
/// (node-based map storage; EnsureIndex never replaces a live index), and
/// a registered index is never written again, so concurrent readers may
/// Lookup() it.
/// Mutating the *contents* of a table (AppendRow via GetMutableTable) is
/// not synchronized — load data single-threaded, then build statistics in
/// parallel. Moving a Catalog is not thread-safe.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(Catalog&& other) noexcept;

  /// Registers a table; the name must be unique.
  Status AddTable(std::unique_ptr<Table> table);

  /// Creates, registers and returns an empty table with the given schema.
  Result<Table*> CreateTable(const std::string& name, const Schema& schema);

  Result<const Table*> GetTable(const std::string& name) const;
  Result<Table*> GetMutableTable(const std::string& name);
  bool HasTable(const std::string& name) const {
    ReaderLock lock(mu_);
    return tables_.contains(name);
  }

  std::vector<std::string> TableNames() const;
  size_t num_tables() const {
    ReaderLock lock(mu_);
    return tables_.size();
  }

  /// The index over table.column — CountKeys(table, {column}), the exact
  /// row count of every key — counting it if absent. Safe when several
  /// threads want the same index at once: the first insert wins, the rest
  /// get the winner, and an existing index is never replaced out from
  /// under a reader.
  Result<const WeightTable*> EnsureIndex(const std::string& table_name,
                                         const std::string& column_name);

  /// Resolves "Table.column"; returns (table, column) or an error.
  Result<std::pair<const Table*, const Column*>> ResolveColumn(
      const std::string& qualified_name) const;

  /// Deep cross-subsystem invariants: every table's columns agree in
  /// length with each other and with the schema, and every index agrees
  /// with the table it covers: a recount of the column has as many keys as
  /// the index, and each row's key has the same count in both.
  /// O(total rows + total indexed rows); wired to bulk-load boundaries via
  /// SITSTATS_DCHECK_OK and exposed to tests.
  Status ValidateConsistency() const;

 private:
  /// Guards tables_ and indexes_ (the registries, not table contents).
  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_ GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, WeightTable> indexes_
      GUARDED_BY(mu_);
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_CATALOG_H_
