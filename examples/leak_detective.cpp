/**
 * @file
 * Leak detective: use the leak-pruning machinery as a *diagnostic*
 * instead of a tolerance mechanism.
 *
 * The paper notes that "to help programmers, leak pruning optionally
 * reports (1) an out-of-memory warning ... and (2) the data structures
 * it prunes". This example runs a leaking workload, then prints a
 * ranked report of suspicious edge types (from the engine's edge
 * table and prune log) — i.e. where the leak lives and what fixing it
 * would reclaim.
 *
 * Usage: leak_detective [workload]          (default: EclipseDiff)
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "apps/leak_workload.h"
#include "harness/driver.h"
#include "harness/report.h"

using namespace lp;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "EclipseDiff";

    DriverConfig config;
    config.maxSeconds = 6.0;
    config.maxIterations = 20000;

    std::printf("running %s under observation...\n", workload.c_str());
    const RunResult result = runWorkloadByName(workload, config);

    std::printf("run ended after %llu iterations: %s\n\n",
                static_cast<unsigned long long>(result.iterations),
                endReasonName(result.end));

    // The engine builds the paper's Section 3.2 report itself.
    const PruningReport &report = result.pruningReport;
    if (report.suspects.empty()) {
        std::printf("no data structures were pruned — either the program "
                    "does not leak reclaimable memory (live growth, bounded "
                    "memory) or it never came close to exhaustion.\n");
        return 0;
    }

    TextTable table({"rank", "reference type (src -> tgt)", "times selected",
                     "refs reclaimed", "stale structure bytes"});
    int rank = 1;
    for (const LeakSuspect &s : report.suspects) {
        table.addRow({std::to_string(rank++), s.typeName,
                      std::to_string(s.timesSelected),
                      std::to_string(s.refsPoisoned),
                      std::to_string(s.structureBytes)});
    }
    std::printf("%s\n", report.toString().c_str());
    table.print(std::cout);

    std::printf("\nfix suggestion: find where the program stores %s "
                "references and remove (or weaken) the last reference once "
                "the data is no longer needed.\n",
                report.suspects.front().typeName.c_str());
    return 0;
}
