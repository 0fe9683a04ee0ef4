#include "config.hh"

#include <fstream>
#include <sstream>

#include "cli.hh"
#include "logging.hh"
#include "strings.hh"

namespace vmargin::util
{

ConfigFile
ConfigFile::fromText(const std::string &text)
{
    ConfigFile config;
    size_t line_number = 0;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
        ++line_number;
        const std::string stripped = trim(line);
        if (stripped.empty() || stripped[0] == '#')
            continue;
        const auto eq = stripped.find('=');
        if (eq == std::string::npos)
            fatalError(concat("config line ", line_number,
                              ": expected key = value, got '",
                              stripped, "'"));
        const std::string key = trim(stripped.substr(0, eq));
        const std::string value = trim(stripped.substr(eq + 1));
        if (key.empty())
            fatalError(concat("config line ", line_number,
                              ": empty key"));
        if (!config.values_.count(key))
            config.order_.push_back(key);
        config.values_[key] = value;
    }
    return config;
}

ConfigFile
ConfigFile::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatalError("cannot read config file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return fromText(text.str());
}

bool
ConfigFile::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::string
ConfigFile::get(const std::string &key,
                const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

long
ConfigFile::getInt(const std::string &key, long fallback) const
{
    if (!has(key))
        return fallback;
    return parseLong(values_.at(key),
                     concat("config key '", key, "'"));
}

std::vector<std::string>
ConfigFile::getList(const std::string &key) const
{
    std::vector<std::string> out;
    if (!has(key))
        return out;
    for (const auto &token : split(values_.at(key), ',')) {
        const std::string element = trim(token);
        if (!element.empty())
            out.push_back(element);
    }
    return out;
}

} // namespace vmargin::util
