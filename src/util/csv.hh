/**
 * @file
 * CSV emission and parsing.
 *
 * The characterization framework's parsing phase reports every
 * classified run into CSV files (paper section 2.2); the prediction
 * pipeline reads them back. CsvWriter appends rows field by field
 * into a caller-owned string, so every report section writes into
 * one buffer: text fields are quoted per RFC 4180 by
 * appendCsvField, integers go through std::to_chars and doubles
 * through util::appendFixed.
 */

#ifndef VMARGIN_UTIL_CSV_HH
#define VMARGIN_UTIL_CSV_HH

#include <charconv>
#include <concepts>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace vmargin::util
{

/** A parsed CSV document: a header row plus data rows. */
struct CsvDocument
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    /** Index of @p column in the header, or -1. */
    int columnIndex(const std::string &column) const;

    /** Value of @p column in data row @p row; panics on bad access. */
    const std::string &at(size_t row, const std::string &column) const;
};

/**
 * Append @p text to @p out as one CSV field: as it is, or quoted
 * when it holds @p sep, a quote, CR or LF, with embedded quotes
 * doubled (RFC 4180). The one quoting rule every text field takes.
 */
void appendCsvField(std::string &out, std::string_view text,
                    char sep = ',');

/**
 * Append-only CSV writer over a caller-owned string. Owns nothing:
 * fields land directly in the caller's buffer, one endRow() per row.
 */
class CsvWriter
{
  public:
    /** @param out buffer rows are appended to @param sep separator */
    explicit CsvWriter(std::string &out, char sep = ',');

    /** A text field, quoted when it needs to be. */
    CsvWriter &field(std::string_view text);

    /** An integer field in decimal. */
    template <std::integral T>
    CsvWriter &
    field(T value)
    {
        separate();
        char digits[24];
        out_.append(digits,
                    std::to_chars(digits, digits + sizeof(digits), value)
                        .ptr);
        return *this;
    }

    /** A double field at fixed @p precision. */
    CsvWriter &field(double value, int precision);

    /** Write @p fields as one whole row. */
    void row(std::initializer_list<std::string_view> fields);

    /** End the current row. */
    void endRow();

  private:
    /** Start a field: the separator unless it is the row's first. */
    void
    separate()
    {
        if (rowFields_++)
            out_ += sep_;
    }

    std::string &out_;
    char sep_;
    size_t rowStart_;
    size_t rowFields_ = 0;
};

/**
 * Parse CSV text into a document. The first row becomes the header.
 * Handles quoted fields, doubled quotes and embedded newlines.
 */
CsvDocument parseCsv(const std::string &text, char sep = ',');

} // namespace vmargin::util

#endif // VMARGIN_UTIL_CSV_HH
