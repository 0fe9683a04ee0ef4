/**
 * @file
 * Unit tests for the ASCII table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/table.hh"

namespace vmargin::util
{
namespace
{

TEST(Table, AlignsColumns)
{
    TablePrinter table({"name", "mV"});
    table.addRow({"bwaves", "875"});
    table.addRow({"mcf", "855"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    EXPECT_NE(out.find("bwaves"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, LeftAlignment)
{
    TablePrinter table({"name", "v"});
    table.setAlignment({Align::Left, Align::Right});
    table.addRow({"ab", "1"});
    table.addRow({"abcdef", "2"});
    std::ostringstream os;
    table.print(os);
    // Left-aligned cell is padded on the right.
    EXPECT_NE(os.str().find("ab    "), std::string::npos);
}

TEST(Banner, ContainsTitle)
{
    std::ostringstream os;
    printBanner(os, "Figure 3");
    EXPECT_NE(os.str().find("==== Figure 3 ===="), std::string::npos);
}

} // namespace
} // namespace vmargin::util
