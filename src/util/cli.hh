/**
 * @file
 * Declarative command-line option parsing for the examples and
 * bench harnesses.
 *
 * Usage:
 *   CliParser cli("quickstart", "Characterize one benchmark");
 *   cli.addOption("chip", "TTT", "chip corner: TTT, TFF or TSS");
 *   cli.addFlag("verbose", "enable chatty logging");
 *   if (!cli.parse(argc, argv)) return 1;  // prints error or --help
 *   std::string chip = cli.value("chip");
 */

#ifndef VMARGIN_UTIL_CLI_HH
#define VMARGIN_UTIL_CLI_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace vmargin::util
{

/**
 * Parse the whole of @p text as a base-10 signed integer. Fatal —
 * naming @p context and the offending value — when the text is not
 * an integer or does not fit a long (strtol's silent LONG_MAX/
 * LONG_MIN clamp is rejected via ERANGE). Every CLI, config and
 * example argument parse routes through here so out-of-range input
 * fails loudly instead of clamping.
 */
long parseLong(const std::string &text, const std::string &context);

/**
 * Parse the whole of @p text as a floating-point number. Fatal —
 * naming @p context and the value — when the text is not a number
 * or overflows to +-HUGE_VAL. Gradual underflow to a denormal (or
 * zero) is accepted: it is a representable result, not a silent
 * clamp.
 */
double parseDouble(const std::string &text,
                   const std::string &context);

/** GNU-style "--name value" / "--name=value" / "--flag" parser. */
class CliParser
{
  public:
    /** @param program program name for usage output
     *  @param summary one-line description */
    CliParser(std::string program, std::string summary);

    /** Register a value option with a default. */
    void addOption(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Register a boolean flag (default false). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Register a repeatable value option: every occurrence of
     * "--name value" appends to the list read back with values().
     * No default — an untouched repeatable option is an empty list.
     */
    void addRepeatable(const std::string &name,
                       const std::string &help);

    /**
     * Parse argv. Returns false (after printing a message) on error
     * or when --help was requested.
     */
    bool parse(int argc, const char *const *argv);

    /** Value of option @p name (default if unset); panics if unknown. */
    const std::string &value(const std::string &name) const;

    /** Value of @p name parsed as integer; fatal on parse failure. */
    long intValue(const std::string &name) const;

    /** Value of @p name parsed as double; fatal on parse failure. */
    double doubleValue(const std::string &name) const;

    /** True if flag @p name was given. */
    bool flag(const std::string &name) const;

    /** Every value given for repeatable option @p name, in command
     *  line order; panics if @p name is not repeatable. */
    const std::vector<std::string> &values(
        const std::string &name) const;

    /** Positional arguments left over after option parsing. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Write the usage/help text. */
    void printHelp(std::ostream &out) const;

  private:
    struct Option
    {
        std::string help;
        // `{}` lets the designated initializers in cli.cc omit these
        // without -Wmissing-field-initializers.
        std::string value{};
        bool isFlag = false;
        bool seen = false;
        bool isRepeatable = false;
        std::vector<std::string> list{};
    };

    std::string program_;
    std::string summary_;
    std::map<std::string, Option> options_;
    std::vector<std::string> order_;
    std::vector<std::string> positional_;
};

} // namespace vmargin::util

#endif // VMARGIN_UTIL_CLI_HH
