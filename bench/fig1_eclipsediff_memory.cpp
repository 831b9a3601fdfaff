/**
 * @file
 * Reproduces paper Figure 1: reachable heap memory for the
 * EclipseDiff leak over iterations, for three configurations:
 *
 *  - the unmodified VM running the leak (grows until out of memory);
 *  - a manually fixed version (flat);
 *  - the leaky version under leak pruning (sawtooth that stays
 *    bounded: pruning reclaims predicted-dead diff trees whenever the
 *    program approaches exhaustion).
 */

#include <iostream>

#include "apps/leak_workload.h"
#include "harness/driver.h"
#include "harness/report.h"
#include "util/series.h"

using namespace lp;

int
main()
{
    registerAllWorkloads();
    printBanner(std::cout, "Figure 1 (ASPLOS'09 Leak Pruning)",
                "EclipseDiff reachable memory: leak / manual fix / pruning");

    const std::uint64_t iterations = 2000; // the paper's figure range

    auto run = [&](const char *workload, bool pruning) {
        DriverConfig cfg;
        cfg.tolerance = pruning ? ToleranceMode::LeakPruning : ToleranceMode::None;
        cfg.maxIterations = iterations;
        cfg.maxSeconds = 30.0;
        cfg.recordSeries = true;
        cfg.sampleEvery = 4;
        return runWorkloadByName(workload, cfg);
    };

    RunResult leak = run("EclipseDiff", false);
    RunResult fixed = run("EclipseDiffFixed", false);
    RunResult pruned = run("EclipseDiff", true);

    SeriesChart chart("EclipseDiff reachable memory (200MB heap in the "
                      "paper; 4MB scaled here)",
                      "iteration", "reachable MB after GC");
    Series s_leak = leak.memoryMb;
    s_leak.setName("leak (unmodified VM)");
    Series s_fixed = fixed.memoryMb;
    s_fixed.setName("manually fixed leak");
    Series s_pruned = pruned.memoryMb;
    s_pruned.setName("with leak pruning");
    chart.addSeries(std::move(s_leak));
    chart.addSeries(std::move(s_fixed));
    chart.addSeries(std::move(s_pruned));
    chart.print(std::cout, 16, false);

    TextTable table({"configuration", "iterations", "end", "final MB",
                     "peak MB"});
    auto row = [&](const char *name, const RunResult &r) {
        char final_mb[32], peak_mb[32];
        std::snprintf(final_mb, sizeof final_mb, "%.2f", r.memoryMb.lastY());
        std::snprintf(peak_mb, sizeof peak_mb, "%.2f", r.memoryMb.maxY());
        table.addRow({name, std::to_string(r.iterations),
                      endReasonName(r.end), final_mb, peak_mb});
    };
    row("leak (unmodified VM)", leak);
    row("manually fixed", fixed);
    row("with leak pruning", pruned);
    table.print(std::cout);

    std::cout << "\nPaper shape check: the unmodified leak grows without\n"
              << "bound and dies; the fix is flat; pruning stays bounded for\n"
              << "the whole range (the paper runs it >50,000 iterations).\n";
    return 0;
}
