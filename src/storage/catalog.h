#ifndef SITSTATS_STORAGE_CATALOG_H_
#define SITSTATS_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/index.h"
#include "storage/table.h"

namespace sitstats {

/// The database: owns tables and secondary indexes. Column references are
/// resolved through the catalog using "Table.column" qualified names.
///
/// Thread safety: the table/index registries are guarded by a
/// reader-writer lock, so lookups (GetTable, GetIndex, ResolveColumn, ...)
/// are safe concurrently with each other and with registrations — the
/// parallel schedule executor scans several tables at once. Returned
/// Table/SortedIndex pointers stay valid for the catalog's lifetime
/// (node-based map storage; EnsureIndex never replaces a live index).
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

  /// Builds (or rebuilds) a sorted secondary index over table.column.
  /// Rebuilding replaces the stored index, so do not call concurrently
  /// with readers that hold the old pointer — concurrent creators should
  /// use EnsureIndex instead.
  Status BuildIndex(const std::string& table_name,
                    const std::string& column_name);

  /// The index over table.column, building it if absent. Unlike
  /// HasIndex-then-BuildIndex, this is safe when several threads want the
  /// same index at once: exactly one build wins, the rest get the winner,
  /// and an existing index is never replaced out from under a reader.
  Result<const SortedIndex*> EnsureIndex(const std::string& table_name,
                                         const std::string& column_name);

  /// The index over table.column, or NotFound.
  Result<const SortedIndex*> GetIndex(const std::string& table_name,
                                      const std::string& column_name) const;
  bool HasIndex(const std::string& table_name,
                const std::string& column_name) const;

  /// Resolves "Table.column"; returns (table, column) or an error.
  Result<std::pair<const Table*, const Column*>> ResolveColumn(
      const std::string& qualified_name) const;

  /// Deep cross-subsystem invariants: every table's columns agree in
  /// length with each other and with the schema, and every index agrees
  /// with the table it covers (registered under its real name, entry
  /// count == row count, sorted keys pointing at the actual cells).
  /// O(total rows + total index entries); wired to index-build and
  /// bulk-load boundaries via SITSTATS_DCHECK_OK and exposed to tests.
  Status ValidateConsistency() const;

 private:
  /// Guards tables_ and indexes_ (the registries, not table contents).
  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_ GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, SortedIndex> indexes_
      GUARDED_BY(mu_);
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_CATALOG_H_
