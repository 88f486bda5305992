#ifndef SITSTATS_STORAGE_CATALOG_H_
#define SITSTATS_STORAGE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/weight_table.h"

namespace sitstats {

/// The exact key -> row-count table over `columns` of `table`, built in
/// one pass over the rows: a key is the tuple of a row's values in
/// `columns` order. A one-column table is laid out for its column first
/// (WeightTable::ForColumn), so its layout is the same in any row order.
/// Rows with a NaN in any of the columns are not counted
/// (NaN joins nothing). Fails on an empty column list, an unknown column
/// or a string column. Catalog::EnsureIndex caches one per key set.
Result<WeightTable> CountKeys(const Table& table,
                              const std::vector<std::string>& columns);

/// A table whose columns stay on disk until its first use: the binary
/// catalog registers one per manifest table record.
struct PendingTable {
  std::string name;
  Schema schema;
  /// The row count the manifest promises; the colfiles must agree.
  uint64_t num_rows = 0;
  /// One colfile path per schema column, in schema order.
  std::vector<std::string> colfiles;
};

/// The database: owns tables and their key-count indexes. Column
/// references are resolved through the catalog using "Table.column"
/// qualified names.
///
/// A table is either loaded (AddTable, CreateTable) or pending
/// (AddPendingTable). The first GetTable, GetMutableTable, ResolveColumn or
/// EnsureIndex that reaches a pending table maps and verifies its colfiles
/// (ReadColumnFile), builds the Table and publishes it. A failed load
/// returns the colfile error, publishes nothing and is retried on the next
/// call. HasTable, TableNames and num_tables see pending tables without
/// loading them.
///
/// Thread safety: the table/index registries are guarded by a
/// reader-writer lock, so lookups (GetTable, EnsureIndex, ResolveColumn,
/// ...) are safe concurrently with each other and with registrations — the
/// parallel schedule executor scans several tables at once. Each table has
/// its own load lock, taken without the registry lock held: concurrent
/// first users of one table wait for a single load and get the same
/// pointer, while loads of different tables run in parallel. Returned
/// Table/WeightTable pointers stay valid for the catalog's lifetime (a
/// published table and a registered index are never replaced), and a
/// registered index is never written again, so concurrent readers may
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

  /// Registers a table to load on first use; the name must be unique.
  /// Reads no colfile.
  Status AddPendingTable(PendingTable pending);

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

  /// The index over `columns` of the table, CountKeys(table, columns),
  /// counted if absent: the one count table per key set. Every exact
  /// m-Oracle over a base table looks rows up in it, and the base
  /// histograms (BaseStatsCache) are built from one-column indexes. Const
  /// like GetTable: counting caches derived state and changes no table.
  /// Safe when several threads want the same index at once: the first
  /// insert wins, the rest get the winner, and an existing index is never
  /// replaced out from under a reader. Nothing evicts an index, so a
  /// server keeps every count table its requests have read until it exits
  /// (a hash-layout table holds 32-64 bytes per distinct key; DESIGN note
  /// 16).
  Result<const WeightTable*> EnsureIndex(
      const std::string& table_name,
      const std::vector<std::string>& columns) const;
  /// The index over one column: EnsureIndex(table_name, {column_name}).
  Result<const WeightTable*> EnsureIndex(const std::string& table_name,
                                         const std::string& column_name) const {
    return EnsureIndex(table_name, std::vector<std::string>{column_name});
  }

  /// Resolves "Table.column"; returns (table, column) or an error.
  Result<std::pair<const Table*, const Column*>> ResolveColumn(
      const std::string& qualified_name) const;

  /// Deep cross-subsystem invariants: every loaded table's columns agree in
  /// length with each other and with the schema (pending tables are not
  /// loaded for this), and every index, over one column or several, agrees
  /// with the table it covers: a recount of its columns has as many keys as
  /// the index, and each row's key has the same count in both.
  /// O(total rows + total indexed rows); wired to bulk-load boundaries via
  /// SITSTATS_DCHECK_OK and exposed to tests.
  Status ValidateConsistency() const;

 private:
  /// One registered table: loaded, or pending until its first use.
  struct TableSlot {
    explicit TableSlot(std::unique_ptr<Table> loaded)
        : table(std::move(loaded)) {}
    explicit TableSlot(PendingTable to_load) : pending(std::move(to_load)) {}

    /// The load lock: held while the table is read from its colfiles.
    Mutex mu;
    /// Null until the table is loaded; never replaced once set.
    std::unique_ptr<Table> table GUARDED_BY(mu);
    PendingTable pending GUARDED_BY(mu);
  };

  Status AddSlot(const std::string& name, std::unique_ptr<TableSlot> slot);
  /// The table named `name`, loading it if it is pending.
  Result<Table*> LoadedTable(const std::string& name) const;
  /// The slot's table, or null while it is pending; loads nothing.
  static const Table* PublishedTable(TableSlot& slot);

  /// Guards tables_ and indexes_ (the registries, not table contents).
  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<TableSlot>> tables_ GUARDED_BY(mu_);
  /// (table, columns) -> the count table over that key set.
  mutable std::map<std::pair<std::string, std::vector<std::string>>,
                   WeightTable>
      indexes_ GUARDED_BY(mu_);
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_CATALOG_H_
