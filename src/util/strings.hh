/**
 * @file
 * Small string helpers used by the CSV layer, the CLI parser and the
 * log classifier.
 */

#ifndef VMARGIN_UTIL_STRINGS_HH
#define VMARGIN_UTIL_STRINGS_HH

#include <string>
#include <vector>

namespace vmargin::util
{

/** Split @p text on @p sep; keeps empty fields. */
std::vector<std::string> split(const std::string &text, char sep);

/** Strip ASCII whitespace from both ends. */
std::string trim(const std::string &text);

/** True if @p text begins with @p prefix. */
bool startsWith(const std::string &text, const std::string &prefix);

/** True if @p text ends with @p suffix. */
bool endsWith(const std::string &text, const std::string &suffix);

/** Lower-case copy (ASCII only). */
std::string toLower(const std::string &text);

/** True if the whole string parses as a (signed) integer. */
bool isInteger(const std::string &text);

/** True if the whole string parses as a floating point number. */
bool isNumber(const std::string &text);

/** Append @p value at fixed @p precision to @p out: printf "%.*f"
 *  (a negative precision means 6), as iostream `fixed` renders it.
 *  The one fixed-precision formatter. A nonnegative value already
 *  on the 10^-precision grid, as every quantized run value is, is
 *  printed from an integer; everything else through to_chars. */
void appendFixed(std::string &out, double value, int precision);

/** Fixed-precision formatting, e.g. formatDouble(0.1234, 2) == "0.12". */
std::string formatDouble(double value, int precision);

/** Right-pad @p text with spaces to at least @p width characters. */
std::string padRight(const std::string &text, size_t width);

/** Left-pad @p text with spaces to at least @p width characters. */
std::string padLeft(const std::string &text, size_t width);

} // namespace vmargin::util

#endif // VMARGIN_UTIL_STRINGS_HH
