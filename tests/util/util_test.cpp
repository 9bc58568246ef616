#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"

namespace wnet::util {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a, b , c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a", ','), (std::vector<std::string>{"a"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitWs) {
  EXPECT_EQ(split_ws("  a  b\tc\n"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(*parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*parse_double(" -2 "), -2.0);
  EXPECT_FALSE(parse_double("3.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
}

TEST(Strings, ParseLong) {
  EXPECT_EQ(*parse_long("42"), 42);
  EXPECT_EQ(*parse_long("-7"), -7);
  EXPECT_FALSE(parse_long("4.2").has_value());
  EXPECT_FALSE(parse_long("").has_value());
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC-9"), "abc-9"); }

TEST(Table, RendersAlignedRowsAndCsv) {
  Table t({"Name", "Value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("Name,Value"), std::string::npos);
  EXPECT_NE(csv.find("b,22222"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FmtDoubleTrimsZeros) {
  EXPECT_EQ(fmt_double(1.5, 2), "1.5");
  EXPECT_EQ(fmt_double(2.0, 2), "2");
  EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
  Rng c(8);
  bool differs = false;
  Rng a2(7);
  for (int i = 0; i < 10; ++i) {
    if (a2.uniform(0, 1) != c.uniform(0, 1)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, RangesRespected) {
  Rng r(3);
  for (int i = 0; i < 200; ++i) {
    const double v = r.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
    const int k = r.uniform_int(-2, 2);
    EXPECT_GE(k, -2);
    EXPECT_LE(k, 2);
  }
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  const double t0 = sw.seconds();
  EXPECT_GE(t0, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.seconds(), t0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
  EXPECT_GE(sw.millis(), 0.0);
}

}  // namespace
}  // namespace wnet::util
