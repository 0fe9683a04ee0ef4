/**
 * @file
 * Unit tests for the logging layer: level filtering and the fatal
 * paths.
 */

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace vmargin::util
{
namespace
{

/** RAII guard restoring the log level after a test. */
class LevelGuard
{
  public:
    LevelGuard() : saved_(setLogLevel(LogLevel::Warn)) {}
    ~LevelGuard() { setLogLevel(saved_); }

  private:
    LogLevel saved_;
};

TEST(Logging, LevelRoundTrip)
{
    LevelGuard guard;
    EXPECT_EQ(setLogLevel(LogLevel::Silent), LogLevel::Warn);
    EXPECT_EQ(setLogLevel(LogLevel::Warn), LogLevel::Silent);
}

TEST(Logging, WarnRespectsSilentLevel)
{
    LevelGuard guard;
    setLogLevel(LogLevel::Silent);
    ::testing::internal::CaptureStderr();
    warn("should not appear");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(Logging, WarnEmitsAtWarnLevel)
{
    LevelGuard guard;
    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    warnf("margin ", 42, " mV");
    const std::string out =
        ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn: margin 42 mV"), std::string::npos);
}

TEST(Logging, ConcatFormatsMixedTypes)
{
    EXPECT_EQ(concat("v=", 905, " s=", 2.5), "v=905 s=2.5");
    EXPECT_EQ(concat(), "");
}

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(panic("invariant broken"),
                 "panic: invariant broken");
    EXPECT_DEATH(panicf("bad core ", 9), "panic: bad core 9");
}

TEST(Logging, FatalExitsWithOne)
{
    EXPECT_EXIT(fatalError("user error"),
                ::testing::ExitedWithCode(1), "fatal: user error");
}

} // namespace
} // namespace vmargin::util
