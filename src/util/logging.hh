/**
 * @file
 * Minimal gem5-flavoured status/error reporting.
 *
 * panic()  - internal invariant violated (a vmargin bug); aborts.
 * fatal()  - the user asked for something impossible; exits cleanly.
 * warn()   - something questionable happened, execution continues.
 *
 * All messages go to stderr. A global log level filters warn() so
 * that test binaries can silence chatter.
 */

#ifndef VMARGIN_UTIL_LOGGING_HH
#define VMARGIN_UTIL_LOGGING_HH

#include <sstream>
#include <string>

namespace vmargin::util
{

/** Verbosity levels, most severe first. */
enum class LogLevel
{
    Silent, ///< suppress everything except panic/fatal
    Warn    ///< show warnings
};

/** Set the process-wide log level and return the previous one.
 *  Thread-unsafe by design. */
LogLevel setLogLevel(LogLevel level);

/**
 * Abort with a message; call for internal invariant violations.
 * Never returns.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Exit(1) with a message; call for unusable user configuration.
 * Never returns.
 */
[[noreturn]] void fatalError(const std::string &msg);

/** Emit a warning if the log level permits. */
void warn(const std::string &msg);

/**
 * Tiny variadic formatter: joins the stream representation of every
 * argument. Used by the convenience wrappers below so call sites can
 * write warnf("Vmin=", vmin, " mV").
 */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    if constexpr (sizeof...(args) > 0)
        (os << ... << std::forward<Args>(args));
    return os.str();
}

template <typename... Args>
void
warnf(Args &&...args)
{
    warn(concat(std::forward<Args>(args)...));
}

template <typename... Args>
[[noreturn]] void
panicf(Args &&...args)
{
    panic(concat(std::forward<Args>(args)...));
}

} // namespace vmargin::util

#endif // VMARGIN_UTIL_LOGGING_HH
