#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace sitstats {
namespace {

TEST(StringUtilTest, JoinEmpty) { EXPECT_EQ(Join({}, ","), ""); }

TEST(StringUtilTest, JoinSingle) { EXPECT_EQ(Join({"a"}, ","), "a"); }

TEST(StringUtilTest, JoinMany) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, SplitBasic) {
  std::vector<std::string> parts = Split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  std::vector<std::string> parts = Split(".a.", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, SplitNoSeparator) {
  std::vector<std::string> parts = Split("abc", '.');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, SplitEmptyString) {
  std::vector<std::string> parts = Split("", '.');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, RoundTrip) {
  std::vector<std::string> parts = {"x", "yy", "zzz"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(1.0, 1), "1.0");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

TEST(StringUtilTest, FormatExactRoundTripsThroughParseDouble) {
  EXPECT_EQ(FormatExact(0.1), "0.10000000000000001");
  EXPECT_EQ(FormatExact(42.0), "42");
  for (double v : {0.1, -2.5, 1.0 / 3.0, 1e300, -1e300,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::max()}) {
    Result<double> parsed = ParseDouble(FormatExact(v));
    ASSERT_TRUE(parsed.ok()) << FormatExact(v);
    EXPECT_EQ(*parsed, v) << FormatExact(v);
  }
}

TEST(StringUtilTest, ParseInt64Valid) {
  EXPECT_EQ(ParseInt64("0").ValueOrDie(), 0);
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-17").ValueOrDie(), -17);
  EXPECT_EQ(ParseInt64("+9").ValueOrDie(), 9);
  EXPECT_EQ(ParseInt64("9223372036854775807").ValueOrDie(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseInt64("-9223372036854775808").ValueOrDie(),
            std::numeric_limits<int64_t>::min());
}

TEST(StringUtilTest, ParseInt64RejectsGarbage) {
  // atoll would silently return 0 or the numeric prefix for all of these.
  EXPECT_EQ(ParseInt64("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("abc").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("12x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("1.5").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInt64("1 2").status().code(), StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, ParseBucketCountTakesOnlyPositiveInts) {
  EXPECT_EQ(ParseBucketCount("1").ValueOrDie(), 1);
  EXPECT_EQ(ParseBucketCount("2147483647").ValueOrDie(),
            std::numeric_limits<int>::max());
  // 2^32 + 100 would wrap to 100 through static_cast<int>.
  for (const char* bad : {"0", "-5", "2147483648", "4294967396", "12x", ""}) {
    EXPECT_EQ(ParseBucketCount(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(StringUtilTest, ParseInt64RejectsOverflow) {
  // atoll clamps to the int64 limits; checked parsing must flag it.
  EXPECT_EQ(ParseInt64("9223372036854775808").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ParseInt64("-9223372036854775809").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ParseInt64("99999999999999999999999").status().code(),
            StatusCode::kOutOfRange);
}

TEST(StringUtilTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("0").ValueOrDie(), 0.0);
  EXPECT_DOUBLE_EQ(ParseDouble("0.25").ValueOrDie(), 0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-3e2").ValueOrDie(), -300.0);
  EXPECT_DOUBLE_EQ(ParseDouble("1e308").ValueOrDie(), 1e308);
}

TEST(StringUtilTest, ParseDoubleRejectsGarbage) {
  EXPECT_EQ(ParseDouble("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("x").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("1.5q").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDouble("--1").status().code(), StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, ParseDoubleRejectsOverflowButNotUnderflow) {
  // strtod saturates overflow at +/-HUGE_VAL with ERANGE; rejected.
  EXPECT_EQ(ParseDouble("1e999").status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ParseDouble("-1e999").status().code(), StatusCode::kOutOfRange);
  // Underflow merely rounds towards zero; the value is still usable.
  Result<double> tiny = ParseDouble("1e-999");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  EXPECT_GE(*tiny, 0.0);
  EXPECT_LT(*tiny, 1e-300);
}

}  // namespace
}  // namespace sitstats
