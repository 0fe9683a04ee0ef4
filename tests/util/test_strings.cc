/**
 * @file
 * Unit tests for string helpers.
 */

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

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

/** std::to_chars in fixed notation: the bytes appendFixed must
 *  reproduce on every path. */
std::string
toCharsFixed(double value, int precision)
{
    char text[512];
    const auto result = std::to_chars(text, text + sizeof(text), value,
                                      std::chars_format::fixed,
                                      precision);
    return std::string(text, result.ptr);
}

/** Re-parse formatDouble's text: a value on the decimal grid of
 *  @p precision, as throughLogPrecision quantizes run values. */
double
onGrid(double value, int precision)
{
    const std::string text = formatDouble(value, precision);
    double parsed = 0.0;
    std::from_chars(text.data(), text.data() + text.size(), parsed);
    return parsed;
}

TEST(FormatDouble, OnGridValuesMatchToChars)
{
    // The random test above almost never lands on the grid, which is
    // where the integer path runs; here every value does.
    Rng rng(11);
    for (int precision = 0; precision <= 8; ++precision) {
        for (int i = 0; i < 3000; ++i) {
            const double scale = std::pow(
                10.0, static_cast<double>(rng.uniformInt(-9, 9)));
            const double value =
                onGrid(rng.uniform(0.0, 1.0) * scale, precision);
            EXPECT_EQ(formatDouble(value, precision),
                      toCharsFixed(value, precision))
                << "value " << value << " precision " << precision;
        }
    }
}

TEST(FormatDouble, EdgeValuesMatchToChars)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double subnormal = std::numeric_limits<double>::denorm_min();
    const std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -2.5, 0.125, 1234.5678,
        -0.0001, -1234.5678, onGrid(-3.14159, 4), onGrid(-0.000001, 6),
        // At and past the integer path's bound, 1e15 after scaling.
        1e15, 1e15 - 1.0, 1e15 + 1.0, 999999999999999.9, 1e7 - 1e-8,
        1e7, 1e16, 123456789012345.6, 9007199254740992.0, 1e300,
        subnormal, -subnormal, std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(), inf, -inf, nan, -nan};
    for (const double value : values)
        for (int precision = -1; precision <= 17; ++precision)
            EXPECT_EQ(formatDouble(value, precision),
                      toCharsFixed(value, precision))
                << "value " << value << " precision " << precision;
    EXPECT_EQ(formatDouble(-0.0, 2), "-0.00");
    EXPECT_EQ(formatDouble(0.0, 0), "0");
    EXPECT_EQ(formatDouble(0.05, 2), "0.05");
    EXPECT_EQ(formatDouble(1.5, 4), "1.5000");
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
