#ifndef SITSTATS_STORAGE_VALUE_H_
#define SITSTATS_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace sitstats {

/// Column data types supported by the storage engine. Statistics (histograms,
/// SITs) are defined over the numeric types; strings exist so that realistic
/// schemas (e.g. TPC-H-lite) can carry payload columns.
enum class ValueType { kInt64, kDouble, kString };

const char* ValueTypeToString(ValueType type);

/// A single typed cell. Used at API boundaries (point lookups, row
/// materialization); bulk storage lives in typed column vectors.
class Value {
 public:
  Value() : repr_(int64_t{0}) {}
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}

  ValueType type() const;

  bool is_int64() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }

  int64_t int64() const { return std::get<int64_t>(repr_); }
  double dbl() const { return std::get<double>(repr_); }
  const std::string& str() const { return std::get<std::string>(repr_); }

  std::string ToString() const;

  bool operator==(const Value& other) const { return repr_ == other.repr_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

 private:
  std::variant<int64_t, double, std::string> repr_;
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_VALUE_H_
