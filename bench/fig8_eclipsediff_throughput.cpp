/**
 * @file
 * Reproduces paper Figure 8: time per iteration for EclipseDiff with
 * and without leak pruning (logarithmic x-axis). Paper shape: the
 * baseline's iterations stay fast until it dies early; with pruning,
 * iterations occasionally spike (a SELECT/PRUNE burst "occasionally
 * doubles an iteration's execution time") but long-term throughput is
 * constant for the whole, vastly longer run.
 */

#include <iostream>

#include "apps/leak_workload.h"
#include "harness/driver.h"
#include "harness/report.h"

using namespace lp;

int
main()
{
    registerAllWorkloads();
    printBanner(std::cout, "Figure 8 (ASPLOS'09 Leak Pruning)",
                "EclipseDiff time per iteration, base vs leak pruning "
                "(log x)");

    DriverConfig base_cfg;
    base_cfg.tolerance = ToleranceMode::None;
    base_cfg.recordSeries = true;
    base_cfg.maxSeconds = 20.0;

    DriverConfig prune_cfg = base_cfg;
    prune_cfg.tolerance = ToleranceMode::LeakPruning;
    prune_cfg.maxSeconds = 20.0;

    const RunResult base = runWorkloadByName("EclipseDiff", base_cfg);
    const RunResult pruned = runWorkloadByName("EclipseDiff", prune_cfg);

    SeriesChart chart("EclipseDiff time per iteration", "iteration", "ms");
    Series sb = base.iterMillis;
    sb.setName("Base (dies at " + std::to_string(base.iterations) + ")");
    Series sp = pruned.iterMillis;
    sp.setName("Leak pruning (alive at " + std::to_string(pruned.iterations) +
               ")");
    chart.addSeries(std::move(sb));
    chart.addSeries(std::move(sp));
    chart.print(std::cout, 20, true);

    // Throughput-consistency check: mean iteration time over the last
    // tenth of the pruned run vs the middle tenth.
    const std::size_t tenth = pruned.iterMillis.size() / 10 + 1;
    const double tail = pruned.iterMillis.tailMeanY(tenth);
    double mid = 0.0;
    {
        const std::size_t n = pruned.iterMillis.size();
        std::size_t count = 0;
        for (std::size_t i = n / 2; i < n / 2 + tenth && i < n; ++i, ++count)
            mid += pruned.iterMillis.y(i);
        mid /= count ? count : 1;
    }
    std::printf("\nthroughput consistency: mid-run %.3f ms/iter vs "
                "end-of-run %.3f ms/iter (ratio %.2f; paper: long-term "
                "throughput is constant)\n",
                mid, tail, mid > 0 ? tail / mid : 0.0);
    std::printf("run extension: %s\n",
                describeEffect(base, pruned).c_str());
    return 0;
}
