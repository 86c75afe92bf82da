/**
 * @file
 * Paper-style table rendering for the bench harnesses: fixed-width
 * columns, percentage/ratio formatting, simple bar strings for the
 * figures.
 */

#ifndef S64V_ANALYSIS_REPORT_HH
#define S64V_ANALYSIS_REPORT_HH

#include <string>
#include <vector>

namespace s64v
{

/** A simple text table builder. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helpers. @{ */
std::string fmtDouble(double v, int precision = 3);
std::string fmtPercent(double fraction, int precision = 1);
/** Ratio of @p v to @p base expressed as a percentage (100 = equal). */
std::string fmtRatioPercent(double v, double base, int precision = 1);
/** ASCII bar of @p fraction (0..1) scaled to @p width characters. */
std::string fmtBar(double fraction, int width = 40);
/** @} */

/** Print a titled section header to stdout. */
void printHeader(const std::string &title);

} // namespace s64v

#endif // S64V_ANALYSIS_REPORT_HH
