/**
 * @file
 * Minimal key=value configuration files.
 *
 * The characterization framework's initialization phase is driven
 * by a user-editable setup (benchmark list, voltage range, cores,
 * campaign count — paper Figure 2). ConfigFile parses the on-disk
 * format:
 *
 *   # comment
 *   workloads = bwaves, mcf
 *   cores     = 0,4
 *   start_mv  = 930
 */

#ifndef VMARGIN_UTIL_CONFIG_HH
#define VMARGIN_UTIL_CONFIG_HH

#include <map>
#include <string>
#include <vector>

namespace vmargin::util
{

/** Parsed key=value configuration. */
class ConfigFile
{
  public:
    /** Parse from text; fatal (user error) on malformed lines. */
    static ConfigFile fromText(const std::string &text);

    /** Parse from a file; fatal when unreadable. */
    static ConfigFile fromFile(const std::string &path);

    /** True when @p key is present. */
    bool has(const std::string &key) const;

    /** Value of @p key, or @p fallback when absent. */
    std::string get(const std::string &key,
                    const std::string &fallback = "") const;

    /** Integer value; fatal on parse failure. */
    long getInt(const std::string &key, long fallback) const;

    /** Comma-separated list value, trimmed per element. */
    std::vector<std::string>
    getList(const std::string &key) const;

    /** All keys, in file order. */
    const std::vector<std::string> &keys() const { return order_; }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> order_;
};

} // namespace vmargin::util

#endif // VMARGIN_UTIL_CONFIG_HH
