/**
 * @file
 * Reproduces paper Table 2 (Section 6.1): iterations executed by the
 * leaky programs under different dead-object prediction algorithms:
 *
 *  - Base:       unmodified runtime (no barriers, no pruning);
 *  - Most stale: prune all references to objects at the highest
 *                observed staleness level — effectively the predictor
 *                of the disk-offloading systems (LeakSurvivor, Melt);
 *  - Indiv refs: the default algorithm without the candidate queue
 *                and stale closure (edges charged only their direct
 *                target's size);
 *  - Default:    the paper's algorithm (data-structure aware).
 *
 * Expected shape: Default matches or beats the alternatives. The
 * canonical case is EclipseCP, where Indiv refs selects the shared
 * String -> char[] edge type and poisons live UI strings, while
 * Default charges whole structures to TextCommand -> String and
 * leaves the UI alone.
 *
 * The last column reproduces the paper's edge-type count (Section
 * 6.2): distinct reference types in the edge table at end of run.
 * Ours are far smaller than Eclipse's thousands because the models
 * have tens of classes, not 2.4 MLoC worth.
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
    printBanner(std::cout, "Table 2 (ASPLOS'09 Leak Pruning)",
                "iterations under Base / Most stale / Indiv refs / Default "
                "predictors");

    const char *leaks[] = {"EclipseDiff", "ListLeak", "SwapLeak", "EclipseCP",
                           "MySQL", "SPECjbb2000", "JbbMod", "Mckoi",
                           "DualLeak"};

    TextTable table({"leak", "base", "LS/Melt (disk x4)", "most stale",
                     "indiv refs", "default", "default edge types"});

    for (const char *leak : leaks) {
        DriverConfig base_cfg;
        base_cfg.tolerance = ToleranceMode::None;
        base_cfg.maxSeconds = 5.0;
        const RunResult base = runWorkloadByName(leak, base_cfg);

        auto pruned = [&](Predictor p) {
            DriverConfig cfg;
            cfg.predictor = p;
            cfg.maxSeconds = 8.0;
            return runWorkloadByName(leak, cfg);
        };
        // The real disk-offloading baseline (LeakSurvivor/Melt), with
        // disk capped at 4x the heap so its exhaustion is observable.
        DriverConfig disk_cfg;
        disk_cfg.tolerance = ToleranceMode::DiskOffload;
        disk_cfg.diskBudgetHeapMultiple = 4.0;
        disk_cfg.maxSeconds = 8.0;
        const RunResult disk = runWorkloadByName(leak, disk_cfg);
        const RunResult most_stale = pruned(Predictor::MostStale);
        const RunResult indiv = pruned(Predictor::IndividualRefs);
        const RunResult def = pruned(Predictor::Default);

        auto cell = [](const RunResult &r) {
            std::string s = std::to_string(r.iterations);
            if (r.survived())
                s += "+";
            return s;
        };
        table.addRow({leak, std::to_string(base.iterations), cell(disk),
                      cell(most_stale), cell(indiv), cell(def),
                      std::to_string(def.edgeTypeCount)});
    }
    table.print(std::cout);

    std::cout << "\n('N+' = still alive at the harness cap.)\n"
              << "Paper shape: the default algorithm matches or outperforms\n"
              << "the in-heap alternatives because it considers reference\n"
              << "types (unlike Most stale) and whole data structures\n"
              << "(unlike Individual references). The disk baseline\n"
              << "tolerates mispredictions by retrieving objects, but is\n"
              << "bounded by its disk budget — with unbounded disk it runs\n"
              << "pure leaks as long as LeakSurvivor/Melt do in the paper.\n";
    return 0;
}
