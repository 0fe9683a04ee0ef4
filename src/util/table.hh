/**
 * @file
 * ASCII table rendering for the bench harnesses.
 *
 * Every bench prints the rows/series of one paper table or figure;
 * TablePrinter keeps that output aligned and reproducible (fixed
 * formatting, no locale dependence).
 */

#ifndef VMARGIN_UTIL_TABLE_HH
#define VMARGIN_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace vmargin::util
{

/** Column alignment for TablePrinter. */
enum class Align
{
    Left,
    Right
};

/**
 * Collects rows of string cells and renders them with padded,
 * separator-delimited columns.
 */
class TablePrinter
{
  public:
    /** @param columns header labels; fixes the column count. */
    explicit TablePrinter(std::vector<std::string> columns);

    /** Per-column alignment; default is Right for every column. */
    void setAlignment(std::vector<Align> alignment);

    /** Append one data row; must match the column count. */
    void addRow(std::vector<std::string> cells);

    /** Render the full table (header, rule, rows). */
    void print(std::ostream &out) const;

  private:
    std::vector<std::string> columns_;
    std::vector<Align> alignment_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a banner like "==== title ====" used between bench sections. */
void printBanner(std::ostream &out, const std::string &title);

} // namespace vmargin::util

#endif // VMARGIN_UTIL_TABLE_HH
