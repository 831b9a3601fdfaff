#include "harness/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace lp {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{}

void
TextTable::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto rule = [&] {
        os << "+";
        for (std::size_t w : widths)
            os << std::string(w + 2, '-') << "+";
        os << "\n";
    };
    auto line = [&](const std::vector<std::string> &cells) {
        os << "|";
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            os << " " << cell << std::string(widths[c] - cell.size(), ' ')
               << " |";
        }
        os << "\n";
    };

    rule();
    line(headers_);
    rule();
    for (const auto &row : rows_)
        line(row);
    rule();
    os.flush();
}

std::string
formatRatio(double ratio, bool lower_bound)
{
    std::ostringstream oss;
    if (lower_bound)
        oss << ">";
    oss << std::fixed << std::setprecision(ratio >= 10 ? 0 : 1) << ratio << "X";
    return oss.str();
}

void
printBanner(std::ostream &os, const std::string &artifact,
            const std::string &description)
{
    os << "\n==============================================================\n"
       << " Reproducing: " << artifact << "\n"
       << " " << description << "\n"
       << "==============================================================\n";
    os.flush();
}

} // namespace lp
