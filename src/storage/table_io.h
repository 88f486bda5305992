#ifndef SITSTATS_STORAGE_TABLE_IO_H_
#define SITSTATS_STORAGE_TABLE_IO_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace sitstats {

/// Persistence for tables and catalogs in two formats:
///
///  - CSV (import/inspection path): first line `column:type,...` (types
///    int64 | double | string), then one comma-separated row per line.
///    Strings must not contain commas or newlines (validated on write).
///    Both LF and CRLF line endings are accepted on read (a trailing
///    carriage return per line is stripped before any cell is parsed);
///    every numeric cell goes through the one checked parse path
///    (ParseInt64/ParseDouble), so malformed and empty cells surface as
///    InvalidArgument with file:row and column context.
///
///  - Binary (serving path): one mmap-able colfile per column
///    (storage/column_file.h) plus a versioned `MANIFEST.bin` listing
///    tables, schemas, and per-column files. Loading is zero-copy for
///    numeric columns and feeds the batched scan contiguous spans.
///
/// The binary importer is `SaveCatalogBinary` over a CSV-loaded catalog
/// (see the CLI `import` subcommand) — CSV parsing happens in exactly one
/// place either way.

Status WriteTableCsv(const Table& table, const std::string& path);

/// Reads a table named `table_name` from `path`, inferring the schema
/// from the header line.
Result<Table> ReadTableCsv(const std::string& table_name,
                           const std::string& path);

/// Writes every table of `catalog` as `<dir>/<table>.csv` plus a
/// `<dir>/MANIFEST` listing the table names, creating `dir` (and missing
/// parents) if needed.
Status SaveCatalogCsv(const Catalog& catalog, const std::string& dir);

/// Loads a catalog previously written by SaveCatalogCsv.
Result<std::unique_ptr<Catalog>> LoadCatalogCsv(const std::string& dir);

/// Name of the versioned binary-catalog manifest inside a data directory.
inline constexpr const char* kBinaryManifestName = "MANIFEST.bin";

/// Writes every table of `catalog` as one colfile per column plus a
/// versioned `MANIFEST.bin`, creating `dir` (and missing parents) if
/// needed.
Status SaveCatalogBinary(const Catalog& catalog, const std::string& dir);

/// Loads a catalog previously written by SaveCatalogBinary. Numeric
/// columns are mmap'ed zero-copy.
Result<std::unique_ptr<Catalog>> LoadCatalogBinary(const std::string& dir);

/// Loads a catalog from `dir`, auto-detecting the format: a binary
/// manifest (MANIFEST.bin) wins over a CSV MANIFEST when both exist.
Result<std::unique_ptr<Catalog>> LoadCatalog(const std::string& dir);

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_TABLE_IO_H_
