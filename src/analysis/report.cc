#include "analysis/report.hh"

#include <algorithm>
#include <cstdio>

namespace s64v
{

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &row,
                        std::string &out) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out += row[c];
            if (c + 1 < row.size())
                out += std::string(widths[c] - row[c].size() + 2, ' ');
        }
        out += '\n';
    };

    std::string out;
    emit_row(headers_, out);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    out += std::string(total > 2 ? total - 2 : total, '-');
    out += '\n';
    for (const auto &row : rows_)
        emit_row(row, out);
    return out;
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtPercent(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision,
                  fraction * 100.0);
    return buf;
}

std::string
fmtRatioPercent(double v, double base, int precision)
{
    if (base == 0.0)
        return "n/a";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision,
                  v / base * 100.0);
    return buf;
}

std::string
fmtBar(double fraction, int width)
{
    fraction = std::clamp(fraction, 0.0, 1.0);
    const int filled = static_cast<int>(fraction * width + 0.5);
    std::string out(static_cast<std::size_t>(filled), '#');
    out += std::string(static_cast<std::size_t>(width - filled), '.');
    return out;
}

void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace s64v
