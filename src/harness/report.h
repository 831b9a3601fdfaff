/**
 * @file
 * Plain-text table rendering for the benchmark binaries, so every
 * bench prints its paper table/figure in a uniform, diffable format,
 * with the paper's reported values alongside the measured ones.
 */

#ifndef LP_HARNESS_REPORT_H
#define LP_HARNESS_REPORT_H

#include <iosfwd>
#include <string>
#include <vector>

namespace lp {

/** A fixed set of columns; rows are added as string vectors. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** "12.3X" / ">12.3X" style ratio formatting. */
std::string formatRatio(double ratio, bool lower_bound = false);

/** Print a bench banner with the paper artifact it reproduces. */
void printBanner(std::ostream &os, const std::string &artifact,
                 const std::string &description);

} // namespace lp

#endif // LP_HARNESS_REPORT_H
