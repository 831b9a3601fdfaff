/**
 * @file
 * Side-by-side comparison of the leak-tolerance schemes on one
 * workload: the unmodified runtime, leak pruning (the paper), and
 * disk offloading (the LeakSurvivor/Melt baseline the paper compares
 * against). Prints how long each keeps the program alive, how it
 * ends, and what it cost.
 *
 * Usage: tolerance_compare [workload] [seconds]   (default: MySQL 10)
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/leak_workload.h"
#include "harness/driver.h"
#include "harness/report.h"

using namespace lp;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "MySQL";
    const double seconds = argc > 2 ? std::strtod(argv[2], nullptr) : 10.0;

    auto run = [&](const char *label, ToleranceMode mode) {
        DriverConfig cfg;
        cfg.tolerance = mode;
        cfg.maxSeconds = seconds;
        RunResult r = runWorkloadByName(workload, cfg);
        std::printf("  %-28s %8llu iterations, end: %s\n", label,
                    static_cast<unsigned long long>(r.iterations),
                    endReasonName(r.end));
        return r;
    };

    std::printf("workload: %s (cap %.0fs per run)\n\n", workload.c_str(),
                seconds);
    const RunResult base =
        run("unmodified runtime", ToleranceMode::None);
    const RunResult pruned =
        run("leak pruning (paper)", ToleranceMode::LeakPruning);
    const RunResult disk =
        run("disk offload (LS/Melt, x4)", ToleranceMode::DiskOffload);

    TextTable table({"scheme", "lifetime vs base", "mechanism cost",
                     "failure mode"});
    table.addRow({"none", "1.0X", "-", "dies at first exhaustion"});
    table.addRow({"leak pruning",
                  formatRatio(pruned.ratioVs(base), pruned.survived()),
                  std::to_string(pruned.pruning.refsPoisoned) +
                      " refs poisoned",
                  pruned.end == EndReason::PrunedAccess
                      ? "InternalError on mispredicted access"
                      : endReasonName(pruned.end)});
    char disk_cost[96];
    std::snprintf(disk_cost, sizeof disk_cost,
                  "%.1f MB written, %llu faults",
                  static_cast<double>(disk.offload.bytesOffloaded) /
                      (1024.0 * 1024.0),
                  static_cast<unsigned long long>(
                      disk.offload.objectsRetrieved));
    table.addRow({"disk offload",
                  formatRatio(disk.ratioVs(base), disk.survived()), disk_cost,
                  disk.offload.diskExhausted ? "disk budget exhausted"
                                             : endReasonName(disk.end)});
    std::printf("\n");
    table.print(std::cout);

    std::printf("\nThe trade the paper describes: pruning is bounded-memory\n"
                "and disk-free but must predict perfectly (a used pruned\n"
                "reference terminates the program); disk offloading forgives\n"
                "mispredictions but inevitably exhausts its disk budget.\n");
    return 0;
}
