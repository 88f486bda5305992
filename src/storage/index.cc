#include "storage/index.h"

#include <algorithm>
#include <cmath>

#include "common/fault_injection.h"
#include "common/radix_sort.h"

namespace sitstats {

Result<SortedIndex> SortedIndex::Build(const Table& table,
                                       const std::string& column_name) {
  SITSTATS_FAULT_SITE("storage.index.build");
  SITSTATS_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(column_name));
  if (col->type() == ValueType::kString) {
    return Status::InvalidArgument("cannot index string column " +
                                   column_name);
  }
  SortedIndex index(table.name(), column_name);
  const size_t n = col->size();
  std::vector<std::pair<double, uint64_t>> entries;
  {
    const std::vector<double> values = col->ToNumericVector();
    entries.reserve(n);
    for (uint64_t row = 0; row < n; ++row) {
      if (std::isnan(values[row])) {
        return Status::InvalidArgument("cannot index NaN in " + table.name() +
                                       "." + column_name + " row " +
                                       std::to_string(row));
      }
      entries.emplace_back(values[row], row);
    }
  }
  // Stable: the row ids of equal keys stay ascending.
  RadixSortByKey(&entries);
  index.keys_.reserve(n);
  index.row_ids_.reserve(n);
  for (const auto& [key, row] : entries) {
    index.keys_.push_back(key);
    index.row_ids_.push_back(row);
  }
  return index;
}

std::vector<uint64_t> SortedIndex::LookupRange(double lo, double hi) const {
  std::vector<uint64_t> out;
  auto begin = std::lower_bound(keys_.begin(), keys_.end(), lo);
  auto end = std::upper_bound(keys_.begin(), keys_.end(), hi);
  for (auto it = begin; it != end; ++it) {
    out.push_back(row_ids_[static_cast<size_t>(it - keys_.begin())]);
  }
  return out;
}

size_t SortedIndex::CountRange(double lo, double hi) const {
  auto begin = std::lower_bound(keys_.begin(), keys_.end(), lo);
  auto end = std::upper_bound(keys_.begin(), keys_.end(), hi);
  return static_cast<size_t>(end - begin);
}

Status SortedIndex::CheckValid(const Table& table) const {
  if (keys_.size() != row_ids_.size()) {
    return Status::Internal("index " + table_name_ + "." + column_name_ +
                            ": keys/row_ids size mismatch");
  }
  if (keys_.size() != table.num_rows()) {
    return Status::Internal(
        "index " + table_name_ + "." + column_name_ + ": " +
        std::to_string(keys_.size()) + " entries but table has " +
        std::to_string(table.num_rows()) + " rows");
  }
  SITSTATS_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(column_name_));
  std::vector<bool> covered(table.num_rows(), false);
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0 && keys_[i - 1] > keys_[i]) {
      return Status::Internal("index " + table_name_ + "." + column_name_ +
                              ": keys out of order at entry " +
                              std::to_string(i));
    }
    uint64_t row = row_ids_[i];
    if (row >= table.num_rows()) {
      return Status::Internal("index " + table_name_ + "." + column_name_ +
                              ": row id " + std::to_string(row) +
                              " out of range");
    }
    if (covered[row]) {
      return Status::Internal("index " + table_name_ + "." + column_name_ +
                              ": row id " + std::to_string(row) +
                              " appears twice");
    }
    covered[row] = true;
    if (col->GetNumeric(row) != keys_[i]) {
      return Status::Internal("index " + table_name_ + "." + column_name_ +
                              ": entry " + std::to_string(i) +
                              " disagrees with the table cell");
    }
  }
  return Status::OK();
}

}  // namespace sitstats
