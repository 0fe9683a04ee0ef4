/**
 * @file
 * Unit tests for the CLI option parser.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "util/cli.hh"

namespace vmargin::util
{
namespace
{

std::vector<const char *>
argvOf(std::initializer_list<const char *> args)
{
    return std::vector<const char *>(args);
}

TEST(Cli, Defaults)
{
    CliParser cli("prog", "test");
    cli.addOption("chip", "TTT", "chip corner");
    const auto argv = argvOf({"prog"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(cli.value("chip"), "TTT");
}

TEST(Cli, SpaceSeparatedValue)
{
    CliParser cli("prog", "test");
    cli.addOption("chip", "TTT", "chip corner");
    const auto argv = argvOf({"prog", "--chip", "TFF"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(cli.value("chip"), "TFF");
}

TEST(Cli, EqualsValue)
{
    CliParser cli("prog", "test");
    cli.addOption("chip", "TTT", "chip corner");
    const auto argv = argvOf({"prog", "--chip=TSS"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(cli.value("chip"), "TSS");
}

TEST(Cli, Flags)
{
    CliParser cli("prog", "test");
    cli.addFlag("verbose", "chatty");
    const auto argv = argvOf({"prog", "--verbose"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_TRUE(cli.flag("verbose"));
}

TEST(Cli, FlagAbsent)
{
    CliParser cli("prog", "test");
    cli.addFlag("verbose", "chatty");
    const auto argv = argvOf({"prog"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_FALSE(cli.flag("verbose"));
}

TEST(Cli, UnknownOptionFails)
{
    CliParser cli("prog", "test");
    const auto argv = argvOf({"prog", "--nope"});
    EXPECT_FALSE(
        cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, MissingValueFails)
{
    CliParser cli("prog", "test");
    cli.addOption("chip", "TTT", "chip corner");
    const auto argv = argvOf({"prog", "--chip"});
    EXPECT_FALSE(
        cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, HelpReturnsFalse)
{
    CliParser cli("prog", "test");
    const auto argv = argvOf({"prog", "--help"});
    EXPECT_FALSE(
        cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, IntAndDoubleValues)
{
    CliParser cli("prog", "test");
    cli.addOption("runs", "10", "run count");
    cli.addOption("frac", "0.2", "fraction");
    const auto argv = argvOf({"prog", "--runs", "25"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(cli.intValue("runs"), 25);
    EXPECT_DOUBLE_EQ(cli.doubleValue("frac"), 0.2);
}

TEST(Cli, Positional)
{
    CliParser cli("prog", "test");
    cli.addOption("chip", "TTT", "chip corner");
    const auto argv = argvOf({"prog", "bwaves", "--chip", "TFF",
                              "mcf"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "bwaves");
    EXPECT_EQ(cli.positional()[1], "mcf");
}

TEST(Cli, RepeatableCollectsEveryOccurrence)
{
    CliParser cli("prog", "test");
    cli.addRepeatable("chip", "fleet chip CORNER[:serial]");
    const auto argv = argvOf(
        {"prog", "--chip", "TTT", "--chip=TFF:2", "--chip", "TSS"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    const auto &chips = cli.values("chip");
    ASSERT_EQ(chips.size(), 3u);
    EXPECT_EQ(chips[0], "TTT");
    EXPECT_EQ(chips[1], "TFF:2");
    EXPECT_EQ(chips[2], "TSS");
}

TEST(Cli, RepeatableUnsetIsEmpty)
{
    CliParser cli("prog", "test");
    cli.addRepeatable("chip", "fleet chip");
    const auto argv = argvOf({"prog"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_TRUE(cli.values("chip").empty());
}

TEST(Cli, RepeatableMissingValueFails)
{
    CliParser cli("prog", "test");
    cli.addRepeatable("chip", "fleet chip");
    const auto argv = argvOf({"prog", "--chip"});
    EXPECT_FALSE(
        cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(CliDeath, ValueOnRepeatablePanics)
{
    CliParser cli("prog", "test");
    cli.addRepeatable("chip", "fleet chip");
    EXPECT_DEATH((void)cli.value("chip"), "repeatable");
}

TEST(CliDeath, ValuesOnScalarPanics)
{
    CliParser cli("prog", "test");
    cli.addOption("chip", "TTT", "chip corner");
    EXPECT_DEATH((void)cli.values("chip"), "not repeatable");
}

TEST(Cli, HelpMarksRepeatable)
{
    CliParser cli("prog", "test");
    cli.addRepeatable("chip", "fleet chip");
    std::ostringstream os;
    cli.printHelp(os);
    EXPECT_NE(os.str().find("(repeatable)"), std::string::npos);
}

TEST(Cli, HelpTextListsOptions)
{
    CliParser cli("prog", "does things");
    cli.addOption("chip", "TTT", "chip corner");
    cli.addFlag("verbose", "chatty");
    std::ostringstream os;
    cli.printHelp(os);
    const std::string help = os.str();
    EXPECT_NE(help.find("--chip"), std::string::npos);
    EXPECT_NE(help.find("--verbose"), std::string::npos);
    EXPECT_NE(help.find("TTT"), std::string::npos);
}

/** Column where the help text starts on one rendered option row,
 *  i.e. the first non-space past the option name. */
size_t
helpColumn(const std::string &row)
{
    const size_t name_end = row.find(' ', row.find("--"));
    if (name_end == std::string::npos)
        return std::string::npos;
    return row.find_first_not_of(' ', row.find("<value>") !=
                                             std::string::npos
                                         ? row.find("<value>") + 7
                                         : name_end);
}

TEST(Cli, HelpAlignsLongOptionNames)
{
    // A name past the historical 28-char pad used to jam its help
    // text against the option; every row must now share one column.
    CliParser cli("prog", "test");
    cli.addOption("chip", "TTT", "chip corner");
    cli.addOption("quarantine-hold-rounds-before-canary", "3",
                  "a deliberately long knob");
    cli.addFlag("verbose", "chatty");
    std::ostringstream os;
    cli.printHelp(os);

    std::vector<std::string> rows;
    std::istringstream in(os.str());
    for (std::string line; std::getline(in, line);)
        if (line.find("  --") == 0)
            rows.push_back(line);
    ASSERT_GE(rows.size(), 4u); // 3 options + --help

    const size_t column = helpColumn(rows.front());
    ASSERT_NE(column, std::string::npos);
    for (const auto &row : rows) {
        EXPECT_EQ(helpColumn(row), column) << "misaligned: " << row;
        // And the long option itself must keep >= 2 spaces of gap.
        EXPECT_NE(row.substr(column - 2, 2), "e>")
            << "help text jammed against the option: " << row;
    }
}

TEST(CliDeath, IntValueOverflowIsFatal)
{
    CliParser cli("prog", "test");
    cli.addOption("runs", "10", "run count");
    const auto argv =
        argvOf({"prog", "--runs", "99999999999999999999"});
    ASSERT_TRUE(
        cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EXIT((void)cli.intValue("runs"),
                ::testing::ExitedWithCode(1),
                "option --runs: '99999999999999999999' is out of "
                "range");
}

TEST(CliDeath, IntValueRejectsNonInteger)
{
    CliParser cli("prog", "test");
    cli.addOption("runs", "10", "run count");
    const auto argv = argvOf({"prog", "--runs", "ten"});
    ASSERT_TRUE(
        cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EXIT((void)cli.intValue("runs"),
                ::testing::ExitedWithCode(1),
                "option --runs: 'ten' is not an integer");
}

TEST(CliDeath, DoubleValueOverflowIsFatal)
{
    CliParser cli("prog", "test");
    cli.addOption("frac", "0.2", "fraction");
    const auto argv = argvOf({"prog", "--frac", "1e999"});
    ASSERT_TRUE(
        cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EXIT((void)cli.doubleValue("frac"),
                ::testing::ExitedWithCode(1),
                "option --frac: '1e999' overflows a double");
}

TEST(Parse, ParseLongRoundTrips)
{
    EXPECT_EQ(parseLong("42", "t"), 42);
    EXPECT_EQ(parseLong("-7", "t"), -7);
    EXPECT_EQ(parseLong("0", "t"), 0);
}

TEST(Parse, ParseDoubleRoundTrips)
{
    EXPECT_DOUBLE_EQ(parseDouble("0.25", "t"), 0.25);
    EXPECT_DOUBLE_EQ(parseDouble("-3e2", "t"), -300.0);
    // Gradual underflow is a representable result, not an error.
    EXPECT_GE(parseDouble("1e-320", "t"), 0.0);
}

TEST(ParseDeath, ParseLongRejectsGarbageAndRange)
{
    EXPECT_EXIT((void)parseLong("12abc", "ctx"),
                ::testing::ExitedWithCode(1),
                "ctx: '12abc' is not an integer");
    EXPECT_EXIT((void)parseLong("", "ctx"),
                ::testing::ExitedWithCode(1),
                "ctx: '' is not an integer");
    EXPECT_EXIT((void)parseLong("-99999999999999999999", "ctx"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ParseDeath, ParseDoubleRejectsGarbageAndOverflow)
{
    EXPECT_EXIT((void)parseDouble("fast", "ctx"),
                ::testing::ExitedWithCode(1),
                "ctx: 'fast' is not a number");
    EXPECT_EXIT((void)parseDouble("-1e999", "ctx"),
                ::testing::ExitedWithCode(1),
                "overflows a double");
}

TEST(Parse, NarrowIntKeepsInRangeValues)
{
    EXPECT_EQ(narrowInt<int>(-2147483648L, "t"), INT32_MIN);
    EXPECT_EQ(narrowInt<uint32_t>(4294967295L, "t"), UINT32_MAX);
    EXPECT_EQ(narrowInt<uint32_t>(0, "t"), 0u);
}

TEST(ParseDeath, NarrowIntRefusesValuesOutsideTheType)
{
    EXPECT_EXIT((void)narrowInt<int>(4294967297L, "ctx"),
                ::testing::ExitedWithCode(1),
                "ctx: 4294967297 is out of range "
                "\\[-2147483648, 2147483647\\]");
    EXPECT_EXIT((void)narrowInt<uint32_t>(-1, "ctx"),
                ::testing::ExitedWithCode(1),
                "ctx: -1 is out of range \\[0, 4294967295\\]");
}

} // namespace
} // namespace vmargin::util
