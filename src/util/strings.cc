#include "strings.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>

namespace vmargin::util
{

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::string current;
    for (char c : text) {
        if (c == sep) {
            parts.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    parts.push_back(current);
    return parts;
}

std::string
trim(const std::string &text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.size() >= prefix.size() &&
           text.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

std::string
toLower(const std::string &text)
{
    std::string result = text;
    std::transform(result.begin(), result.end(), result.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return result;
}

bool
isInteger(const std::string &text)
{
    if (text.empty())
        return false;
    const char *begin = text.c_str();
    char *end = nullptr;
    std::strtoll(begin, &end, 10);
    return end == begin + text.size();
}

bool
isNumber(const std::string &text)
{
    if (text.empty())
        return false;
    const char *begin = text.c_str();
    char *end = nullptr;
    std::strtod(begin, &end);
    return end == begin + text.size();
}

namespace
{

/** Powers of ten, each exact in a double. */
constexpr double kPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                             1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};

/** Largest scaled value the on-grid path takes: far enough below
 *  2^52 that one ulp of the value is under 10^-precision. */
constexpr double kOnGridBound = 1e15;

/**
 * Append @p value as the integer round(value * 10^precision) with
 * the decimal point put in, when that is exactly what to_chars would
 * print; false, appending nothing, otherwise. The test
 * double(n) / 10^p == value (division is correctly rounded) proves
 * value is the double nearest n / 10^p. Below kOnGridBound the
 * value's exact binary expansion is then within half an ulp, less
 * than half a unit in the last printed digit, of n / 10^p, so
 * rounding it to p digits gives n's digits under any tie rule.
 * Negative values and -0.0 (whose sign would need printing), NaN,
 * infinities and larger magnitudes are left to to_chars.
 */
bool
appendOnGrid(std::string &out, double value, int precision)
{
    if (precision < 0 ||
        precision >= static_cast<int>(std::size(kPow10)) ||
        std::signbit(value))
        return false;
    const double scale = kPow10[precision];
    const double scaled = value * scale;
    if (!(scaled < kOnGridBound)) // also refuses NaN
        return false;
    // Exact: below the bound a double's ulp is at most 1/8.
    const auto n = static_cast<uint64_t>(scaled + 0.5);
    if (static_cast<double>(n) / scale != value)
        return false;

    char digits[24];
    const size_t length = static_cast<size_t>(
        std::to_chars(digits, digits + sizeof(digits), n).ptr - digits);
    const auto fraction = static_cast<size_t>(precision);
    if (fraction == 0) {
        out.append(digits, length);
    } else if (length > fraction) {
        out.append(digits, length - fraction)
            .append(1, '.')
            .append(digits + length - fraction, fraction);
    } else {
        out.append("0.").append(fraction - length, '0').append(digits,
                                                               length);
    }
    return true;
}

} // namespace

void
appendFixed(std::string &out, double value, int precision)
{
    if (appendOnGrid(out, value, precision))
        return;
    // Most values fit a small buffer; the fallback fits a double's
    // 309 integer digits, sign, point and fraction.
    char small[64];
    auto result = std::to_chars(small, small + sizeof(small), value,
                                std::chars_format::fixed, precision);
    if (result.ec == std::errc()) {
        out.append(small, result.ptr);
        return;
    }
    const size_t start = out.size();
    out.resize(start + 312 + static_cast<size_t>(std::max(precision, 6)));
    result = std::to_chars(out.data() + start, out.data() + out.size(),
                           value, std::chars_format::fixed, precision);
    out.resize(static_cast<size_t>(result.ptr - out.data()));
}

std::string
formatDouble(double value, int precision)
{
    std::string text;
    appendFixed(text, value, precision);
    return text;
}

std::string
padRight(const std::string &text, size_t width)
{
    if (text.size() >= width)
        return text;
    return text + std::string(width - text.size(), ' ');
}

std::string
padLeft(const std::string &text, size_t width)
{
    if (text.size() >= width)
        return text;
    return std::string(width - text.size(), ' ') + text;
}

} // namespace vmargin::util
