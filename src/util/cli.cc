#include "cli.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "logging.hh"
#include "strings.hh"

namespace vmargin::util
{

long
parseLong(const std::string &text, const std::string &context)
{
    if (!isInteger(text))
        fatalError(concat(context, ": '", text,
                          "' is not an integer"));
    errno = 0;
    const long value = std::strtol(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        fatalError(concat(context, ": '", text,
                          "' is out of range (does not fit a ",
                          sizeof(long) * 8, "-bit integer)"));
    return value;
}

double
parseDouble(const std::string &text, const std::string &context)
{
    if (!isNumber(text))
        fatalError(concat(context, ": '", text,
                          "' is not a number"));
    errno = 0;
    const double value = std::strtod(text.c_str(), nullptr);
    if (errno == ERANGE && std::fabs(value) == HUGE_VAL)
        fatalError(concat(context, ": '", text,
                          "' overflows a double"));
    return value;
}

CliParser::CliParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

void
CliParser::addOption(const std::string &name, const std::string &def,
                     const std::string &help)
{
    if (options_.count(name))
        panicf("CliParser: duplicate option --", name);
    options_[name] = Option{.help = help, .value = def};
    order_.push_back(name);
}

void
CliParser::addFlag(const std::string &name, const std::string &help)
{
    if (options_.count(name))
        panicf("CliParser: duplicate option --", name);
    options_[name] = Option{.help = help, .isFlag = true};
    order_.push_back(name);
}

void
CliParser::addRepeatable(const std::string &name,
                         const std::string &help)
{
    if (options_.count(name))
        panicf("CliParser: duplicate option --", name);
    options_[name] = Option{.help = help, .isRepeatable = true};
    order_.push_back(name);
}

bool
CliParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(std::cout);
            return false;
        }
        if (!startsWith(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string inline_value;
        bool has_inline = false;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            inline_value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_inline = true;
        }
        auto it = options_.find(name);
        if (it == options_.end()) {
            std::cerr << program_ << ": unknown option --" << name
                      << " (try --help)\n";
            return false;
        }
        Option &opt = it->second;
        opt.seen = true;
        if (opt.isFlag) {
            if (has_inline) {
                std::cerr << program_ << ": flag --" << name
                          << " takes no value\n";
                return false;
            }
            // Not `= "1"`: that trips a g++ 12 -Wrestrict false positive.
            opt.value.assign(1, '1');
        } else {
            if (!has_inline && i + 1 >= argc) {
                std::cerr << program_ << ": option --" << name
                          << " requires a value\n";
                return false;
            }
            const std::string given =
                has_inline ? inline_value : argv[++i];
            if (opt.isRepeatable)
                opt.list.push_back(given);
            else
                opt.value = given;
        }
    }
    return true;
}

const std::string &
CliParser::value(const std::string &name) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        panicf("CliParser: option --", name, " was never registered");
    if (it->second.isRepeatable)
        panicf("CliParser: option --", name,
               " is repeatable; read it with values()");
    return it->second.value;
}

const std::vector<std::string> &
CliParser::values(const std::string &name) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        panicf("CliParser: option --", name, " was never registered");
    if (!it->second.isRepeatable)
        panicf("CliParser: option --", name,
               " is not repeatable; read it with value()");
    return it->second.list;
}

long
CliParser::intValue(const std::string &name) const
{
    return parseLong(value(name), "option --" + name);
}

double
CliParser::doubleValue(const std::string &name) const
{
    return parseDouble(value(name), "option --" + name);
}

bool
CliParser::flag(const std::string &name) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        panicf("CliParser: flag --", name, " was never registered");
    return it->second.seen && it->second.isFlag;
}

void
CliParser::printHelp(std::ostream &out) const
{
    // The help column starts two spaces past the longest rendered
    // option (never narrower than the historical 28-char pad), so a
    // long option name widens the whole table instead of jamming
    // into its own help text.
    const auto renderLeft = [this](const std::string &name) {
        std::string left = "  --" + name;
        if (!options_.at(name).isFlag)
            left += " <value>";
        return left;
    };
    size_t width = 28;
    for (const auto &name : order_)
        width = std::max(width, renderLeft(name).size() + 2);

    out << program_ << " - " << summary_ << "\n\noptions:\n";
    for (const auto &name : order_) {
        const Option &opt = options_.at(name);
        out << padRight(renderLeft(name), width) << opt.help;
        if (opt.isRepeatable)
            out << " (repeatable)";
        else if (!opt.isFlag && !opt.value.empty())
            out << " (default: " << opt.value << ")";
        out << '\n';
    }
    out << padRight("  --help", width) << "show this message\n";
}

} // namespace vmargin::util
