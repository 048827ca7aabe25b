/**
 * @file
 * Aligned ASCII table printer for the benchmark harnesses.
 *
 * The bench/ programs regenerate the paper's tables and figure series;
 * TablePrinter renders them with aligned columns so the output can be
 * compared against the paper side by side.
 */

#ifndef SUIT_UTIL_TABLE_HH
#define SUIT_UTIL_TABLE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace suit::util {

/** Column-aligned table with a header row and optional separators. */
class TablePrinter
{
  public:
    /** Create a table with the given column headers. */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append one data row (must match the header width). */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal separator line. */
    void addSeparator();

    /** Render the whole table to a string. */
    std::string render() const;

    /** Render and write to stdout. */
    void print() const;

  private:
    static constexpr const char *kSeparatorTag = "\x01--";

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace suit::util

#endif // SUIT_UTIL_TABLE_HH
