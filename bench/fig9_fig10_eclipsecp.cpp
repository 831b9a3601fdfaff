/**
 * @file
 * Reproduces paper Figures 9 and 10: EclipseCP reachable memory
 * (Fig. 9) and time per iteration (Fig. 10), base vs leak pruning,
 * both with logarithmic x-axes.
 *
 * Paper shape: the baseline runs out of memory after ~11 iterations;
 * pruning reclaims the dead undo/event text and keeps it going ~81X
 * longer while steady-state reachable memory creeps slowly upward
 * (caches / unpruned objects), until the program finally uses a
 * reclaimed instance and terminates.
 */

#include <iostream>
#include <set>
#include <utility>

#include "apps/leak_workload.h"
#include "harness/driver.h"
#include "harness/report.h"

using namespace lp;

int
main()
{
    registerAllWorkloads();
    printBanner(std::cout, "Figures 9 and 10 (ASPLOS'09 Leak Pruning)",
                "EclipseCP reachable memory and time per iteration (log x)");

    DriverConfig base_cfg;
    base_cfg.tolerance = ToleranceMode::None;
    base_cfg.recordSeries = true;
    base_cfg.maxSeconds = 20.0;

    DriverConfig prune_cfg = base_cfg;
    prune_cfg.tolerance = ToleranceMode::LeakPruning;
    prune_cfg.maxSeconds = 30.0;

    const RunResult base = runWorkloadByName("EclipseCP", base_cfg);
    const RunResult pruned = runWorkloadByName("EclipseCP", prune_cfg);

    {
        SeriesChart chart("Figure 9: EclipseCP reachable memory", "iteration",
                          "MB");
        Series sb = base.memoryMb;
        sb.setName("Base (OOM at " + std::to_string(base.iterations) + ")");
        Series sp = pruned.memoryMb;
        sp.setName("Leak pruning (" + std::to_string(pruned.iterations) +
                   " iterations, end: " + endReasonName(pruned.end) + ")");
        chart.addSeries(std::move(sb));
        chart.addSeries(std::move(sp));
        chart.print(std::cout, 18, true);
    }
    {
        SeriesChart chart("Figure 10: EclipseCP time per iteration",
                          "iteration", "ms");
        Series sb = base.iterMillis;
        sb.setName("Base");
        Series sp = pruned.iterMillis;
        sp.setName("Leak pruning");
        chart.addSeries(std::move(sb));
        chart.addSeries(std::move(sp));
        chart.print(std::cout, 18, true);
    }

    std::printf("\nrun extension: %s (paper: 81X, ends by using a reclaimed "
                "instance)\n",
                describeEffect(base, pruned).c_str());
    std::printf("pruned end: %s\n", pruned.endDetail.c_str());
    std::set<std::pair<std::uint32_t, std::uint32_t>> pruned_types;
    for (const PruneAuditRecord &rec : pruned.pruneLog) {
        if (rec.hasType)
            pruned_types.emplace(rec.srcClass, rec.tgtClass);
    }
    std::printf("distinct edge types pruned: %zu (paper reclaims over 100 "
                "types; our model has tens of classes, not Eclipse's "
                "thousands)\n",
                pruned_types.size());
    return 0;
}
