#ifndef SITSTATS_STORAGE_TABLE_H_
#define SITSTATS_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace sitstats {

/// A named, column-oriented table. All columns always hold the same number
/// of rows (enforced on append via AppendRow, and by CheckConsistent()).
class Table {
 public:
  Table(std::string name, const Schema& schema);

  /// Bulk-load construction from pre-built columns (the binary catalog
  /// path hands over mmap-backed columns wholesale). The columns must
  /// match the schema in order, name, and type, and agree on row count.
  static Result<Table> FromColumns(std::string name, const Schema& schema,
                                   std::vector<Column> columns);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const;
  size_t num_columns() const { return columns_.size(); }

  /// Column accessors. GetColumn returns NotFound for unknown names; the
  /// unchecked `column(i)` is for internal iteration.
  Result<const Column*> GetColumn(const std::string& name) const;
  Result<Column*> GetMutableColumn(const std::string& name);
  const Column& column(size_t i) const { return columns_[i]; }
  Column& column(size_t i) { return columns_[i]; }

  /// Appends a full row; the value count and types must match the schema.
  Status AppendRow(const std::vector<Value>& values);

  /// Pre-allocates storage for `n` rows in every column.
  void Reserve(size_t n);

  /// Verifies all columns have equal length.
  Status CheckConsistent() const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_TABLE_H_
