/**
 * @file
 * Unit tests for CSV emission and parsing.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/csv.hh"

namespace vmargin::util
{
namespace
{

TEST(CsvWriter, PlainRows)
{
    std::string out;
    CsvWriter writer(out);
    writer.row({"a", "b"});
    writer.row({"1", "2"});
    EXPECT_EQ(out, "a,b\n1,2\n");
}

/** The bytes one text field is written as. */
std::string
written(const std::string &text)
{
    std::string out;
    CsvWriter(out).field(text);
    return out;
}

TEST(CsvWriter, EscapesSeparator)
{
    EXPECT_EQ(written("a,b"), "\"a,b\"");
}

TEST(CsvWriter, EscapesQuotes)
{
    EXPECT_EQ(written("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriter, EscapesNewline)
{
    EXPECT_EQ(written("a\nb"), "\"a\nb\"");
}

TEST(CsvWriter, LeavesPlainAlone)
{
    EXPECT_EQ(written("hello"), "hello");
}

TEST(CsvWriter, CustomSeparator)
{
    std::string out;
    CsvWriter writer(out, ';');
    writer.row({"a;x", "b"});
    EXPECT_EQ(out, "\"a;x\";b\n");
}

TEST(CsvWriter, TypedFieldsAppend)
{
    std::string out = "kept ";
    CsvWriter writer(out);
    writer.field(-7).field(uint64_t{18446744073709551615u});
    writer.field(0.12345, 3).field(2.5, 0).field("plain").field("a\"b");
    writer.endRow();
    EXPECT_EQ(out, "kept -7,18446744073709551615,0.123,2,plain,"
                   "\"a\"\"b\"\n");
}

TEST(ParseCsv, RoundTrip)
{
    std::string out;
    CsvWriter writer(out);
    writer.row({"name", "value"});
    writer.row({"plain", "1"});
    writer.row({"with,comma", "2"});
    writer.row({"with \"quote\"", "3"});
    writer.row({"with\nnewline", "4"});

    const CsvDocument doc = parseCsv(out);
    ASSERT_EQ(doc.header.size(), 2u);
    ASSERT_EQ(doc.rows.size(), 4u);
    EXPECT_EQ(doc.at(0, "name"), "plain");
    EXPECT_EQ(doc.at(1, "name"), "with,comma");
    EXPECT_EQ(doc.at(2, "name"), "with \"quote\"");
    EXPECT_EQ(doc.at(3, "name"), "with\nnewline");
    EXPECT_EQ(doc.at(3, "value"), "4");
}

TEST(ParseCsv, Empty)
{
    const CsvDocument doc = parseCsv("");
    EXPECT_TRUE(doc.header.empty());
    EXPECT_TRUE(doc.rows.empty());
}

TEST(ParseCsv, HeaderOnly)
{
    const CsvDocument doc = parseCsv("a,b,c\n");
    EXPECT_EQ(doc.header.size(), 3u);
    EXPECT_TRUE(doc.rows.empty());
}

TEST(ParseCsv, CrLfLineEndings)
{
    const CsvDocument doc = parseCsv("a,b\r\n1,2\r\n");
    ASSERT_EQ(doc.rows.size(), 1u);
    EXPECT_EQ(doc.at(0, "b"), "2");
}

TEST(ParseCsv, MissingColumnIndex)
{
    const CsvDocument doc = parseCsv("a,b\n1,2\n");
    EXPECT_EQ(doc.columnIndex("a"), 0);
    EXPECT_EQ(doc.columnIndex("b"), 1);
    EXPECT_EQ(doc.columnIndex("zzz"), -1);
}

TEST(ParseCsv, NoTrailingNewline)
{
    const CsvDocument doc = parseCsv("a,b\n1,2");
    ASSERT_EQ(doc.rows.size(), 1u);
    EXPECT_EQ(doc.at(0, "b"), "2");
}

TEST(CsvRoundTrip, SingleEmptyFieldRowSurvives)
{
    // Regression: a row of exactly one empty field used to emit a
    // bare newline, which the parser dropped as a blank line.
    std::string out;
    CsvWriter writer(out);
    writer.row({"only"});
    writer.row({""});
    writer.row({"x"});
    EXPECT_EQ(out, "only\n\"\"\nx\n");

    const CsvDocument doc = parseCsv(out);
    ASSERT_EQ(doc.rows.size(), 2u);
    EXPECT_EQ(doc.at(0, "only"), "");
    EXPECT_EQ(doc.at(1, "only"), "x");
}

TEST(CsvRoundTrip, EmptyEdgeFieldsSurvive)
{
    std::string out;
    CsvWriter writer(out);
    writer.row({"a", "b", "c"});
    writer.row({"", "mid", ""});
    writer.row({"", "", ""});

    const CsvDocument doc = parseCsv(out);
    ASSERT_EQ(doc.rows.size(), 2u);
    EXPECT_EQ(doc.at(0, "a"), "");
    EXPECT_EQ(doc.at(0, "b"), "mid");
    EXPECT_EQ(doc.at(0, "c"), "");
    EXPECT_EQ(doc.at(1, "a"), "");
    EXPECT_EQ(doc.at(1, "c"), "");
}

TEST(CsvRoundTrip, HostileFieldsExhaustive)
{
    // Every pairing of the characters the quoting rules exist for:
    // separator, quote, newline, carriage return, and mixtures.
    const std::vector<std::string> hostile = {
        "",          "plain",       ",",       "\"",
        "\n",        "\r\n",        "a,b",     "say \"hi\"",
        "line1\nline2", "\"quoted\"", ",lead",  "trail,",
        "\"\"",      "a\r\nb,c\"d", " spaced ", "5,\"6\"\n7",
    };
    std::string out;
    CsvWriter writer(out);
    writer.row({"left", "right"});
    size_t expected_rows = 0;
    for (const auto &left : hostile)
        for (const auto &right : hostile) {
            writer.row({left, right});
            ++expected_rows;
        }

    const CsvDocument doc = parseCsv(out);
    ASSERT_EQ(doc.rows.size(), expected_rows);
    size_t row = 0;
    for (const auto &left : hostile)
        for (const auto &right : hostile) {
            EXPECT_EQ(doc.at(row, "left"), left)
                << "row " << row;
            EXPECT_EQ(doc.at(row, "right"), right)
                << "row " << row;
            ++row;
        }
}

TEST(CsvRoundTrip, SingleHostileColumn)
{
    // One-column documents exercise the bare-newline edge cases the
    // multi-column round trip can't reach.
    const std::vector<std::string> hostile = {
        "", "a", "\n", ",", "\"\"", "b\nc", "",
    };
    std::string out;
    CsvWriter writer(out);
    writer.row({"only"});
    for (const auto &value : hostile)
        writer.row({value});

    const CsvDocument doc = parseCsv(out);
    ASSERT_EQ(doc.rows.size(), hostile.size());
    for (size_t i = 0; i < hostile.size(); ++i)
        EXPECT_EQ(doc.at(i, "only"), hostile[i]) << "row " << i;
}

} // namespace
} // namespace vmargin::util
