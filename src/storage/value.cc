#include "storage/value.h"

namespace sitstats {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

ValueType Value::type() const {
  if (is_int64()) return ValueType::kInt64;
  if (is_double()) return ValueType::kDouble;
  return ValueType::kString;
}

std::string Value::ToString() const {
  if (is_int64()) return std::to_string(int64());
  if (is_double()) return std::to_string(dbl());
  return str();
}

}  // namespace sitstats
