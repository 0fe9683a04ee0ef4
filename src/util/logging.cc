#include "logging.hh"

#include <cstdlib>
#include <iostream>

namespace vmargin::util
{

namespace
{
LogLevel gLevel = LogLevel::Warn;
} // namespace

LogLevel
setLogLevel(LogLevel level)
{
    const LogLevel previous = gLevel;
    gLevel = level;
    return previous;
}

void
panic(const std::string &msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

void
fatalError(const std::string &msg)
{
    std::cerr << "fatal: " << msg << std::endl;
    std::exit(1);
}

void
warn(const std::string &msg)
{
    if (gLevel >= LogLevel::Warn)
        std::cerr << "warn: " << msg << std::endl;
}

} // namespace vmargin::util
