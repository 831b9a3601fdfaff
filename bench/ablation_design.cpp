/**
 * @file
 * Ablations of leak pruning's design choices (beyond the predictor
 * comparison of Table 2):
 *
 *  1. maxStaleUse decay (the paper's suggested future-work policy for
 *     phased behavior): PhasedLeak protects a dead registry with a
 *     warmup phase's stale-then-used record; without decay pruning
 *     reclaims ~nothing, with decay it reclaims the registry once the
 *     phase is over.
 *
 *  2. The candidate staleness margin ("we conservatively use two
 *     greater, instead of one"): margin 1 prunes more aggressively —
 *     risking live structures (EclipseDiff must not die early) —
 *     while margin 3 is slower to engage (ListLeak still fine, but
 *     borderline leaks reclaim less).
 *
 *  3. The edge-table size (paper: fixed 16K slots): a tiny table drops
 *     edge types once full; the leaking type must still be caught for
 *     simple leaks.
 */

#include <iostream>

#include "apps/leak_workload.h"
#include "harness/driver.h"
#include "harness/report.h"

using namespace lp;

namespace {

RunResult
run(const char *workload, bool pruning,
    const std::function<void(DriverConfig &)> &tweak = {})
{
    DriverConfig cfg;
    cfg.tolerance = pruning ? ToleranceMode::LeakPruning : ToleranceMode::None;
    cfg.maxSeconds = 10.0;
    if (tweak)
        tweak(cfg);
    return runWorkloadByName(workload, cfg);
}

std::string
outcomeCell(const RunResult &r)
{
    std::string s = std::to_string(r.iterations);
    if (r.survived())
        s += "+ (alive)";
    else if (r.end == EndReason::PrunedAccess)
        s += " (pruned access)";
    else
        s += " (OOM)";
    return s;
}

} // namespace

int
main()
{
    registerAllWorkloads();

    printBanner(std::cout, "Ablation 1: maxStaleUse decay",
                "PhasedLeak — a finished phase's audits protect dead data");
    {
        const RunResult base = run("PhasedLeak", false);
        const RunResult no_decay = run("PhasedLeak", true);
        const RunResult decay = run("PhasedLeak", true, [](DriverConfig &c) {
            c.decayPeriod = 4;
        });

        TextTable table({"configuration", "iterations", "refs pruned",
                         "effect vs base"});
        table.addRow({"base (no pruning)", outcomeCell(base), "-", "1.0X"});
        table.addRow({"pruning, no decay (paper)", outcomeCell(no_decay),
                      std::to_string(no_decay.pruning.refsPoisoned),
                      formatRatio(no_decay.ratioVs(base), no_decay.survived())});
        table.addRow({"pruning + decay (extension)", outcomeCell(decay),
                      std::to_string(decay.pruning.refsPoisoned),
                      formatRatio(decay.ratioVs(base), decay.survived())});
        table.print(std::cout);
        std::cout << "(Expected: without decay the phase's maxStaleUse record "
                     "protects the dead registry and pruning barely helps; "
                     "with decay the protection expires and the program runs "
                     "far longer.)\n";
    }

    printBanner(std::cout, "Ablation 2: candidate staleness margin",
                "margin 1 vs 2 (paper) vs 3 — aggressiveness/accuracy "
                "trade-off");
    {
        TextTable table({"workload", "margin 1", "margin 2 (paper)",
                         "margin 3"});
        for (const char *w : {"EclipseDiff", "ListLeak", "MySQL"}) {
            std::vector<std::string> row{w};
            for (unsigned margin : {1u, 2u, 3u}) {
                const RunResult r = run(w, true, [&](DriverConfig &c) {
                    c.maxSeconds = 8.0;
                    c.staleUseMargin = margin;
                });
                row.push_back(outcomeCell(r));
            }
            table.addRow(row);
        }
        table.print(std::cout);
        std::cout << "(Expected: margin 1 risks pruning live-but-briefly-idle "
                     "structures — watch for early 'pruned access' ends; "
                     "margin 3 waits longer before anything is a candidate, "
                     "reclaiming less per prune. The paper's 2 balances "
                     "the two.)\n";
    }

    printBanner(std::cout, "Ablation 3: edge-table capacity",
                "paper's 16K slots vs a tiny 64-slot table");
    {
        TextTable table({"workload", "16K slots (paper)", "64 slots"});
        for (const char *w : {"ListLeak", "EclipseDiff"}) {
            const RunResult big = run(w, true);
            const RunResult small = run(w, true, [](DriverConfig &c) {
                c.edgeTableSlots = 64;
            });
            table.addRow({w, outcomeCell(big), outcomeCell(small)});
        }
        table.print(std::cout);
        std::cout << "(A full table silently stops recording new edge types; "
                     "simple leaks still prune because their edge type is "
                     "recorded early.)\n";
    }
    return 0;
}
