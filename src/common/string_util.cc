#include "common/string_util.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <limits>
#include <sstream>

namespace sitstats {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result += sep;
    result += parts[i];
  }
  return result;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : s) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << value;
  return os.str();
}

std::string FormatExact(double value) {
  char buffer[64];
  (void)std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

Result<int64_t> ParseInt64(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("not an integer: '" + text + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of int64 range: '" + text + "'");
  }
  return static_cast<int64_t>(v);
}

Result<int> ParseBucketCount(const std::string& text) {
  Result<int64_t> parsed = ParseInt64(text);
  if (!parsed.ok() || *parsed < 1 ||
      *parsed > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(
        "buckets must be an integer in [1, " +
        std::to_string(std::numeric_limits<int>::max()) + "], got '" + text +
        "'");
  }
  return static_cast<int>(*parsed);
}

Result<double> ParseDouble(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: '" + text + "'");
  }
  // ERANGE covers both overflow (±HUGE_VAL) and underflow (denormal or
  // zero); only overflow loses the value's magnitude entirely.
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
    return Status::OutOfRange("number out of double range: '" + text + "'");
  }
  return v;
}

std::string NumberedName(const char* prefix, long long n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

}  // namespace sitstats
