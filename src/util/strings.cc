#include "strings.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

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

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string result;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            result += sep;
        result += parts[i];
    }
    return result;
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

void
appendFixed(std::string &out, double value, int precision)
{
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
