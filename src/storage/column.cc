#include "storage/column.h"

#include "common/logging.h"

namespace sitstats {

Column::Column(std::string name, ValueType type)
    : name_(std::move(name)), type_(type) {
  switch (type_) {
    case ValueType::kInt64:
      data_ = std::vector<int64_t>();
      break;
    case ValueType::kDouble:
      data_ = std::vector<double>();
      break;
    case ValueType::kString:
      data_ = std::vector<std::string>();
      break;
  }
}

Column Column::FromMappedNumeric(std::string name, ValueType type,
                                 const void* data, size_t n,
                                 std::shared_ptr<const void> keepalive) {
  SITSTATS_CHECK(type != ValueType::kString)
      << "mapped storage is numeric-only; string column " << name
      << " must be materialized";
  SITSTATS_CHECK(data != nullptr || n == 0)
      << "mapped column " << name << " with null data";
  Column column(std::move(name), type);
  column.external_data_ = data;
  column.external_size_ = n;
  column.keepalive_ = std::move(keepalive);
  return column;
}

size_t Column::size() const {
  if (is_mapped()) return external_size_;
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

void Column::AppendInt64(int64_t v) {
  SITSTATS_CHECK(!is_mapped()) << "append to mapped column " << name_;
  SITSTATS_CHECK(type_ == ValueType::kInt64)
      << "AppendInt64 on " << ValueTypeToString(type_) << " column " << name_;
  std::get<std::vector<int64_t>>(data_).push_back(v);
}

void Column::AppendDouble(double v) {
  SITSTATS_CHECK(!is_mapped()) << "append to mapped column " << name_;
  SITSTATS_CHECK(type_ == ValueType::kDouble)
      << "AppendDouble on " << ValueTypeToString(type_) << " column "
      << name_;
  std::get<std::vector<double>>(data_).push_back(v);
}

void Column::AppendString(std::string v) {
  SITSTATS_CHECK(!is_mapped()) << "append to mapped column " << name_;
  SITSTATS_CHECK(type_ == ValueType::kString)
      << "AppendString on " << ValueTypeToString(type_) << " column "
      << name_;
  std::get<std::vector<std::string>>(data_).push_back(std::move(v));
}

void Column::Append(const Value& v) {
  switch (type_) {
    case ValueType::kInt64:
      AppendInt64(v.int64());
      break;
    case ValueType::kDouble:
      AppendDouble(v.dbl());
      break;
    case ValueType::kString:
      AppendString(v.str());
      break;
  }
}

void Column::Reserve(size_t n) {
  SITSTATS_CHECK(!is_mapped()) << "reserve on mapped column " << name_;
  std::visit([n](auto& v) { v.reserve(n); }, data_);
}

Value Column::Get(size_t row) const {
  SITSTATS_CHECK(row < size()) << "row " << row << " out of range in column "
                               << name_;
  switch (type_) {
    case ValueType::kInt64:
      return Value(int64_data()[row]);
    case ValueType::kDouble:
      return Value(double_data()[row]);
    case ValueType::kString:
      return Value(string_data()[row]);
  }
  return Value();
}

double Column::GetNumeric(size_t row) const {
  SITSTATS_CHECK(row < size()) << "row " << row << " out of range in column "
                               << name_;
  switch (type_) {
    case ValueType::kInt64:
      return static_cast<double>(int64_data()[row]);
    case ValueType::kDouble:
      return double_data()[row];
    case ValueType::kString:
      SITSTATS_CHECK(false) << "GetNumeric on string column " << name_;
  }
  return 0.0;
}

std::span<const int64_t> Column::int64_data() const {
  SITSTATS_CHECK(type_ == ValueType::kInt64)
      << "int64_data on " << ValueTypeToString(type_) << " column " << name_;
  if (is_mapped()) {
    return {static_cast<const int64_t*>(external_data_), external_size_};
  }
  const auto& v = std::get<std::vector<int64_t>>(data_);
  return {v.data(), v.size()};
}

std::span<const double> Column::double_data() const {
  SITSTATS_CHECK(type_ == ValueType::kDouble)
      << "double_data on " << ValueTypeToString(type_) << " column " << name_;
  if (is_mapped()) {
    return {static_cast<const double*>(external_data_), external_size_};
  }
  const auto& v = std::get<std::vector<double>>(data_);
  return {v.data(), v.size()};
}

const std::vector<std::string>& Column::string_data() const {
  return std::get<std::vector<std::string>>(data_);
}

std::vector<double> Column::ToNumericVector() const {
  std::vector<double> out;
  out.reserve(size());
  switch (type_) {
    case ValueType::kInt64: {
      auto span = int64_data();
      out.assign(span.begin(), span.end());
      break;
    }
    case ValueType::kDouble: {
      auto span = double_data();
      out.assign(span.begin(), span.end());
      break;
    }
    case ValueType::kString:
      SITSTATS_CHECK(false) << "ToNumericVector on string column " << name_;
  }
  return out;
}

}  // namespace sitstats
