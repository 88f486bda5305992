#ifndef SITSTATS_STORAGE_INDEX_H_
#define SITSTATS_STORAGE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace sitstats {

/// Secondary index over one numeric column: a sorted array of
/// (key, row id) pairs, the in-memory equivalent of a clustered B+-tree
/// leaf level. SweepIndex's exact m-Oracle (IndexMOracle) compiles
/// ForEachKeyRun() into a lookup table once per build.
class SortedIndex {
 public:
  /// Builds an index over `table`.`column_name`. Fails on string columns,
  /// unknown columns, or a NaN cell (NaN has no place in key order).
  static Result<SortedIndex> Build(const Table& table,
                                   const std::string& column_name);

  const std::string& table_name() const { return table_name_; }
  const std::string& column_name() const { return column_name_; }
  size_t num_entries() const { return keys_.size(); }

  /// Calls fn(key, count) once per distinct key, in ascending key order:
  /// one run-length pass over the sorted keys (keys equal under `==`, so
  /// -0.0 and +0.0 form one run).
  template <typename Fn>
  void ForEachKeyRun(Fn&& fn) const {
    for (size_t begin = 0; begin < keys_.size();) {
      size_t end = begin + 1;
      while (end < keys_.size() && keys_[end] == keys_[begin]) ++end;
      fn(keys_[begin], end - begin);
      begin = end;
    }
  }

  /// Row ids whose key lies in [lo, hi] (inclusive), in key order; row ids
  /// of equal keys are ascending.
  /// 64-bit row ids: 32 bits would silently truncate beyond 2^32-row
  /// tables (the paper's temp populations reach billions of rows).
  std::vector<uint64_t> LookupRange(double lo, double hi) const;

  /// Number of rows whose key lies in [lo, hi] (inclusive).
  size_t CountRange(double lo, double hi) const;

  /// Deep invariants against the indexed table: entry count matches the
  /// table's row count, keys are sorted, row ids are in range and unique,
  /// and each key equals the cell it points at. O(n) over the index;
  /// called from Catalog::ValidateConsistency.
  Status CheckValid(const Table& table) const;

 private:
  SortedIndex(std::string table_name, std::string column_name)
      : table_name_(std::move(table_name)),
        column_name_(std::move(column_name)) {}

  std::string table_name_;
  std::string column_name_;
  std::vector<double> keys_;      // sorted
  std::vector<uint64_t> row_ids_;  // aligned with keys_
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_INDEX_H_
