#include "common/string_util.h"

#include <gtest/gtest.h>

namespace telco {
namespace {

TEST(StringUtilTest, SplitBasic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = Split(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitNoDelimiter) {
  const auto parts = Split("plain", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "plain");
}

TEST(StringUtilTest, JoinRoundTrip) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("MiXeD Case 42"), "mixed case 42");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StringUtilTest, StrFormatLongOutput) {
  const std::string long_str(500, 'a');
  EXPECT_EQ(StrFormat("%s", long_str.c_str()).size(), 500u);
}

TEST(StringUtilTest, ParseInt64AcceptsWholeIntegersInRange) {
  EXPECT_EQ(ParseInt64("12", 0, 100, "--n").ValueOrDie(), 12);
  EXPECT_EQ(ParseInt64("-7", -10, 10, "--n").ValueOrDie(), -7);
  EXPECT_EQ(ParseInt64("0", 0, 0, "--n").ValueOrDie(), 0);
  EXPECT_EQ(ParseInt64("9223372036854775807", 0, INT64_MAX, "--n")
                .ValueOrDie(),
            INT64_MAX);
}

TEST(StringUtilTest, ParseInt64RejectsPartialAndMalformedText) {
  for (const char* text : {"12k", "0x", "0x10", "", " 5", "5 ", "+5", "1.5",
                           "--3", "abc"}) {
    const auto parsed = ParseInt64(text, INT64_MIN, INT64_MAX, "--customers");
    ASSERT_FALSE(parsed.ok()) << "'" << text << "'";
    EXPECT_TRUE(parsed.status().IsInvalidArgument());
    EXPECT_EQ(parsed.status().message().rfind("--customers", 0), 0u)
        << parsed.status().ToString();
  }
}

TEST(StringUtilTest, ParseInt64RejectsOutOfRange) {
  EXPECT_TRUE(
      ParseInt64("-1", 1, 100, "--trees").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseInt64("101", 1, 100, "--trees").status().IsInvalidArgument());
  const auto overflow =
      ParseInt64("99999999999999999999", INT64_MIN, INT64_MAX, "X");
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("must be in"),
            std::string::npos);
}

TEST(StringUtilTest, ParseDoubleAcceptsWholeNumbersInRange) {
  EXPECT_EQ(ParseDouble("5", 0.0, 10.0, "--s").ValueOrDie(), 5.0);
  EXPECT_EQ(ParseDouble("0.25", 0.0, 1.0, "--s").ValueOrDie(), 0.25);
  EXPECT_EQ(ParseDouble("-1.5e2", -200.0, 0.0, "--s").ValueOrDie(), -150.0);
  EXPECT_EQ(ParseDouble("1e-3", 0.001, 1.0, "--s").ValueOrDie(), 0.001);
}

TEST(StringUtilTest, ParseDoubleRejectsPartialMalformedAndNonFinite) {
  for (const char* text : {"5x", "", " 5", "5 ", "+5", "nan", "NaN", "inf",
                           "-inf", "infinity", "0x10", "abc", "1e"}) {
    const auto parsed = ParseDouble(text, -1e9, 1e9, "--stats-interval-s");
    ASSERT_FALSE(parsed.ok()) << "'" << text << "'";
    EXPECT_TRUE(parsed.status().IsInvalidArgument());
    EXPECT_EQ(parsed.status().message().rfind("--stats-interval-s", 0), 0u)
        << parsed.status().ToString();
  }
}

TEST(StringUtilTest, ParseDoubleRejectsOutOfRange) {
  EXPECT_TRUE(ParseDouble("0", 0.001, 10.0, "--s")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseDouble("10.5", 0.001, 10.0, "--s")
                  .status()
                  .IsInvalidArgument());
  for (const char* text : {"1e400", "-1e400"}) {
    const auto overflow = ParseDouble(text, -1e300, 1e300, "--s");
    ASSERT_FALSE(overflow.ok()) << text;
    EXPECT_NE(overflow.status().message().find("must be in"),
              std::string::npos)
        << overflow.status().ToString();
  }
}

}  // namespace
}  // namespace telco
