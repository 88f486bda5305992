#ifndef SITSTATS_STORAGE_COLUMN_H_
#define SITSTATS_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "storage/value.h"

namespace sitstats {

/// A named, typed column of values stored contiguously (column-oriented
/// layout). Bulk readers should use the typed span accessors (int64_data()
/// / double_data()) rather than per-cell Get() in hot loops.
///
/// Two storage modes:
///  - Owned: cells live in a vector and the column is appendable (the CSV
///    load and datagen paths).
///  - Mapped: numeric cells reference an external read-only region — an
///    mmap'ed column file — kept alive by a shared keepalive handle. A
///    mapped column is immutable; Append*/Reserve on it are programming
///    errors (checked).
/// Both modes expose identical contiguous spans, so every consumer (scan,
/// index build, histogram build) is storage-agnostic.
class Column {
 public:
  Column(std::string name, ValueType type);

  /// Zero-copy construction over `n` numeric cells at `data` (int64 or
  /// double, matching `type`). `keepalive` owns the backing region (the
  /// mapped file) and is held for the column's lifetime.
  static Column FromMappedNumeric(std::string name, ValueType type,
                                  const void* data, size_t n,
                                  std::shared_ptr<const void> keepalive);

  const std::string& name() const { return name_; }
  ValueType type() const { return type_; }
  size_t size() const;

  /// True for a column borrowing external (mmap-backed) storage.
  bool is_mapped() const { return external_data_ != nullptr; }

  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void Append(const Value& v);

  /// Reserves storage for `n` rows.
  void Reserve(size_t n);

  Value Get(size_t row) const;

  /// Numeric view of one cell (int64 widened). Checked against strings.
  double GetNumeric(size_t row) const;

  /// Contiguous cell spans. Valid for the column's lifetime (owned mode
  /// invalidates on append, like any vector).
  std::span<const int64_t> int64_data() const;
  std::span<const double> double_data() const;
  const std::vector<std::string>& string_data() const;

  /// Copies all cells into a vector of doubles (int64 widened). Fails on
  /// string columns via SITSTATS_CHECK; statistics are numeric-only.
  std::vector<double> ToNumericVector() const;

 private:
  std::string name_;
  ValueType type_;
  std::variant<std::vector<int64_t>, std::vector<double>,
               std::vector<std::string>>
      data_;
  /// Mapped mode: non-null typed pointer into the external region.
  const void* external_data_ = nullptr;
  size_t external_size_ = 0;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_COLUMN_H_
