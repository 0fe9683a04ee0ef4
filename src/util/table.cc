#include "table.hh"

#include <algorithm>

#include "logging.hh"
#include "strings.hh"

namespace vmargin::util
{

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : columns_(std::move(columns)),
      alignment_(columns_.size(), Align::Right)
{
    if (columns_.empty())
        panic("TablePrinter: need at least one column");
}

void
TablePrinter::setAlignment(std::vector<Align> alignment)
{
    if (alignment.size() != columns_.size())
        panicf("TablePrinter: alignment count ", alignment.size(),
               " != column count ", columns_.size());
    alignment_ = std::move(alignment);
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    if (cells.size() != columns_.size())
        panicf("TablePrinter: row has ", cells.size(),
               " cells, expected ", columns_.size());
    rows_.push_back(std::move(cells));
}

void
TablePrinter::print(std::ostream &out) const
{
    std::vector<size_t> widths(columns_.size(), 0);
    for (size_t c = 0; c < columns_.size(); ++c)
        widths[c] = columns_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            if (c)
                out << "  ";
            out << (alignment_[c] == Align::Left
                        ? padRight(cells[c], widths[c])
                        : padLeft(cells[c], widths[c]));
        }
        out << '\n';
    };

    emit_row(columns_);
    size_t rule_width = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        rule_width += widths[c] + (c ? 2 : 0);
    out << std::string(rule_width, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
}

void
printBanner(std::ostream &out, const std::string &title)
{
    out << "\n==== " << title << " ====\n";
}

} // namespace vmargin::util
