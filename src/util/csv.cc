#include "csv.hh"

#include "logging.hh"
#include "strings.hh"

namespace vmargin::util
{

int
CsvDocument::columnIndex(const std::string &column) const
{
    for (size_t i = 0; i < header.size(); ++i)
        if (header[i] == column)
            return static_cast<int>(i);
    return -1;
}

const std::string &
CsvDocument::at(size_t row, const std::string &column) const
{
    const int col = columnIndex(column);
    if (col < 0)
        panicf("CsvDocument: no column named '", column, "'");
    if (row >= rows.size())
        panicf("CsvDocument: row ", row, " out of range (",
               rows.size(), " rows)");
    const auto &fields = rows[row];
    if (static_cast<size_t>(col) >= fields.size())
        panicf("CsvDocument: row ", row, " has no field for column '",
               column, "'");
    return fields[static_cast<size_t>(col)];
}

void
appendCsvField(std::string &out, std::string_view text, char sep)
{
    const char specials[] = {sep, '"', '\n', '\r'};
    if (text.find_first_of(std::string_view(
            specials, sizeof(specials))) == std::string_view::npos) {
        out.append(text);
        return;
    }
    out += '"';
    for (const char c : text) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
}

CsvWriter::CsvWriter(std::string &out, char sep)
    : out_(out), sep_(sep), rowStart_(out.size())
{
}

CsvWriter &
CsvWriter::field(std::string_view text)
{
    separate();
    appendCsvField(out_, text, sep_);
    return *this;
}

CsvWriter &
CsvWriter::field(double value, int precision)
{
    separate();
    appendFixed(out_, value, precision);
    return *this;
}

void
CsvWriter::row(std::initializer_list<std::string_view> fields)
{
    for (const std::string_view text : fields)
        field(text);
    endRow();
}

void
CsvWriter::endRow()
{
    // A single empty field would serialize as a bare newline, which
    // parsers (ours included, per RFC 4180's blank-line rule) drop
    // as an empty row. Quote it to keep the row.
    if (rowFields_ == 1 && out_.size() == rowStart_)
        out_ += "\"\"";
    out_ += '\n';
    rowStart_ = out_.size();
    rowFields_ = 0;
}

namespace
{

/** Incremental CSV scanner behind parseCsv: every row of @p text,
 *  header included, appended to @p out_rows. */
void
scanCsv(const std::string &text, char sep,
        std::vector<std::vector<std::string>> &out_rows)
{
    std::vector<std::string> row;
    std::string field;
    bool in_quotes = false;
    bool row_has_content = false;

    auto end_field = [&]() {
        row.push_back(field);
        field.clear();
    };
    auto end_row = [&]() {
        end_field();
        out_rows.push_back(row);
        row.clear();
        row_has_content = false;
    };

    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                field += c;
            }
            row_has_content = true;
        } else if (c == '"') {
            in_quotes = true;
            row_has_content = true;
        } else if (c == sep) {
            end_field();
            row_has_content = true;
        } else if (c == '\r') {
            // swallow; \r\n handled by the \n branch
        } else if (c == '\n') {
            if (row_has_content || !field.empty() || !row.empty())
                end_row();
        } else {
            field += c;
            row_has_content = true;
        }
    }
    if (row_has_content || !field.empty() || !row.empty())
        end_row();
}

} // namespace

CsvDocument
parseCsv(const std::string &text, char sep)
{
    std::vector<std::vector<std::string>> all_rows;
    scanCsv(text, sep, all_rows);

    CsvDocument doc;
    if (all_rows.empty())
        return doc;
    doc.header = all_rows.front();
    doc.rows.assign(all_rows.begin() + 1, all_rows.end());
    return doc;
}

} // namespace vmargin::util
