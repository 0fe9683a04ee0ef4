/**
 * @file
 * Unit tests for string helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/rng.hh"
#include "util/strings.hh"

namespace vmargin::util
{
namespace
{

TEST(Split, Basic)
{
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields)
{
    const auto parts = split(",a,", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[2], "");
}

TEST(Split, NoSeparator)
{
    const auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Trim, Whitespace)
{
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("a"), "a");
}

TEST(Join, Basic)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StartsEndsWith, Basic)
{
    EXPECT_TRUE(startsWith("voltage=980", "voltage="));
    EXPECT_FALSE(startsWith("volt", "voltage"));
    EXPECT_TRUE(endsWith("report.csv", ".csv"));
    EXPECT_FALSE(endsWith("csv", "report.csv"));
}

TEST(ToLower, Basic)
{
    EXPECT_EQ(toLower("TTT Chip"), "ttt chip");
}

TEST(IsInteger, Accepts)
{
    EXPECT_TRUE(isInteger("42"));
    EXPECT_TRUE(isInteger("-7"));
    EXPECT_TRUE(isInteger("0"));
}

TEST(IsInteger, Rejects)
{
    EXPECT_FALSE(isInteger(""));
    EXPECT_FALSE(isInteger("4.2"));
    EXPECT_FALSE(isInteger("12a"));
    EXPECT_FALSE(isInteger("a12"));
}

TEST(IsNumber, Accepts)
{
    EXPECT_TRUE(isNumber("3.14"));
    EXPECT_TRUE(isNumber("-1e-3"));
    EXPECT_TRUE(isNumber("42"));
}

TEST(IsNumber, Rejects)
{
    EXPECT_FALSE(isNumber(""));
    EXPECT_FALSE(isNumber("1.2.3"));
    EXPECT_FALSE(isNumber("volt"));
}

TEST(FormatDouble, FixedPrecision)
{
    EXPECT_EQ(formatDouble(0.1234, 2), "0.12");
    EXPECT_EQ(formatDouble(19.4, 1), "19.4");
    EXPECT_EQ(formatDouble(-2.5, 0), "-2");
    EXPECT_EQ(formatDouble(-1e-9, 4), "-0.0000");
    EXPECT_EQ(formatDouble(1.7976931348623157e308, 0).size(), 309u);

    // Same bytes as an iostream in `fixed` mode, the reference the
    // report and log formats were written with.
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const double scale =
            std::pow(10.0, static_cast<double>(rng.uniformInt(-8, 12)));
        const double value = rng.uniform(-1.0, 1.0) * scale;
        const int precision = static_cast<int>(rng.uniformInt(0, 8));
        std::ostringstream os;
        os.setf(std::ios::fixed);
        os.precision(precision);
        os << value;
        EXPECT_EQ(formatDouble(value, precision), os.str())
            << "value " << value << " precision " << precision;
    }
}

TEST(Pad, Basic)
{
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("abcd", 2), "abcd");
    EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

} // namespace
} // namespace vmargin::util
