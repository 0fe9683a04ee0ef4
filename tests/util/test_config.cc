/**
 * @file
 * Unit tests for the key=value configuration parser.
 */

#include <gtest/gtest.h>

#include "util/config.hh"

namespace vmargin::util
{
namespace
{

TEST(Config, ParsesKeysAndValues)
{
    const auto config = ConfigFile::fromText(
        "# characterization setup\n"
        "workloads = bwaves, mcf\n"
        "start_mv=930\n"
        "  end_mv  =  830  \n"
        "\n"
        "verbose = true\n");
    EXPECT_TRUE(config.has("workloads"));
    EXPECT_EQ(config.get("start_mv"), "930");
    EXPECT_EQ(config.get("end_mv"), "830");
    EXPECT_EQ(config.keys().size(), 4u);
}

TEST(Config, MissingKeysFallBack)
{
    const auto config = ConfigFile::fromText("a = 1\n");
    EXPECT_FALSE(config.has("b"));
    EXPECT_EQ(config.get("b", "zz"), "zz");
    EXPECT_EQ(config.getInt("b", 7), 7);
}

TEST(Config, TypedAccessors)
{
    const auto config =
        ConfigFile::fromText("runs = 10\nneg = -3\n");
    EXPECT_EQ(config.getInt("runs", 0), 10);
    EXPECT_EQ(config.getInt("neg", 0), -3);
}

TEST(Config, Lists)
{
    const auto config = ConfigFile::fromText(
        "cores = 0, 4 ,7\nempty =\n");
    EXPECT_EQ(config.getList("cores"),
              (std::vector<std::string>{"0", "4", "7"}));
    EXPECT_TRUE(config.getList("empty").empty());
    EXPECT_TRUE(config.getList("missing").empty());
}

TEST(Config, LastValueWins)
{
    const auto config =
        ConfigFile::fromText("a = 1\na = 2\n");
    EXPECT_EQ(config.getInt("a", 0), 2);
    EXPECT_EQ(config.keys().size(), 1u);
}

TEST(Config, FatalOnMalformedLine)
{
    EXPECT_EXIT(ConfigFile::fromText("not a pair\n"),
                ::testing::ExitedWithCode(1), "expected key");
}

TEST(Config, FatalOnBadTypes)
{
    const auto config = ConfigFile::fromText("n = twelve\n");
    EXPECT_EXIT((void)config.getInt("n", 0),
                ::testing::ExitedWithCode(1), "not an integer");
}

TEST(Config, FatalOnMissingFile)
{
    EXPECT_EXIT(ConfigFile::fromFile("/nonexistent/vmargin.conf"),
                ::testing::ExitedWithCode(1), "cannot read");
}

} // namespace
} // namespace vmargin::util
