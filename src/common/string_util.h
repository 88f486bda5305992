#ifndef SITSTATS_COMMON_STRING_UTIL_H_
#define SITSTATS_COMMON_STRING_UTIL_H_

#include <cstdint>

#include <string>
#include <vector>

#include "common/result.h"

namespace sitstats {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Splits `s` on the character `sep`; no trimming, empty fields preserved.
std::vector<std::string> Split(const std::string& s, char sep);

/// Formats a double with `precision` significant decimal digits.
std::string FormatDouble(double value, int precision = 4);

/// Formats a double with "%.17g": enough digits that ParseDouble returns
/// the identical value. Used wherever a double is written as text and read
/// back (SIT files, CSV export, the server wire protocol).
std::string FormatExact(double value);

/// Parses the *entire* string as a base-10 int64. Unlike atoll, trailing
/// garbage ("12x"), an empty string, and out-of-range magnitudes are
/// errors rather than silent zeros / clamps.
Result<int64_t> ParseInt64(const std::string& text);

/// Parses the entire string as a histogram bucket count: an integer in
/// [1, INT_MAX]. A larger value is an InvalidArgument, not a count
/// wrapped through int. Shared by BUILD's `buckets=` and both tools'
/// `--buckets`.
Result<int> ParseBucketCount(const std::string& text);

/// Parses the *entire* string as a double (strtod grammar: decimal,
/// scientific, inf, nan). Trailing garbage, an empty string, and overflow
/// to ±infinity are errors.
Result<double> ParseDouble(const std::string& text);

/// `prefix` followed by the decimal rendering of `n` ("T", 3 -> "T3").
/// Use instead of `"T" + std::to_string(n)`: that spelling trips GCC 12's
/// -Wrestrict false positive (PR105651) once inlined at -O2, which the
/// opt-in -Werror build turns fatal.
std::string NumberedName(const char* prefix, long long n);

}  // namespace sitstats

#endif  // SITSTATS_COMMON_STRING_UTIL_H_
