/**
 * @file
 * Reproduces paper Figure 7 (Section 5): normalized garbage collection
 * time across heap sizes 1.5x to 5x each benchmark's minimum heap, for
 * three configurations:
 *
 *   Base:    plain collector;
 *   Observe: engine pinned in OBSERVE (staleness maintenance during
 *            collection) — paper: up to 5% extra GC time;
 *   Select:  engine pinned in SELECT (staleness + stale closure +
 *            selection every collection) — paper: up to 9% more, 14%
 *            total over Base.
 *
 * Smaller heaps collect more often, amplifying the per-GC overhead —
 * hence the curves converge toward 1.0 as the heap grows.
 */

#include <cmath>
#include <iostream>
#include <optional>
#include <vector>

#include "apps/leak_workload.h"
#include "harness/driver.h"
#include "harness/report.h"

using namespace lp;

namespace {

const char *kSuite[] = {"suite.pointer", "suite.churn", "suite.tree",
                        "suite.hash", "suite.strings", "suite.stack"};
constexpr std::uint64_t kIterations = 250;
const double kMultipliers[] = {1.5, 2.0, 2.5, 3.0, 4.0, 5.0};

double
gcSeconds(const char *workload, std::size_t heap_bytes,
          std::optional<PruningState> pin)
{
    // Best of two runs: GC times here are milliseconds, so one
    // scheduler hiccup would otherwise dominate the ratio.
    double best = 1e9;
    for (int trial = 0; trial < 2; ++trial) {
        DriverConfig cfg;
        cfg.tolerance = pin ? ToleranceMode::LeakPruning : ToleranceMode::None;
        cfg.pinState = pin;
        cfg.heapBytes = heap_bytes;
        cfg.maxIterations = kIterations;
        cfg.maxSeconds = 60.0;
        const RunResult r = runWorkloadByName(workload, cfg);
        best = std::min(best,
                        static_cast<double>(r.gc.totalPauseNanos) * 1e-9);
    }
    return best + 1e-6; // epsilon: avoid 0/0 in roomy heaps
}

} // namespace

int
main()
{
    registerAllWorkloads();
    printBanner(std::cout, "Figure 7 (ASPLOS'09 Leak Pruning)",
                "normalized GC time vs heap size, Base / Observe / Select");

    // Estimate each workload's minimum heap: peak live bytes in a
    // roomy heap plus allocator slack.
    std::vector<std::size_t> min_heap;
    for (const char *w : kSuite) {
        DriverConfig cfg;
        cfg.tolerance = ToleranceMode::None;
        cfg.heapBytes = 64u << 20;
        cfg.maxIterations = 50;
        cfg.maxSeconds = 30.0;
        const RunResult probe = runWorkloadByName(w, cfg);
        min_heap.push_back(
            static_cast<std::size_t>(probe.maxLiveBytes * 1.4) + (1u << 20));
    }

    TextTable table({"heap (x min)", "Base", "Observe", "Select",
                     "Observe ovh", "Select ovh"});
    for (const double mult : kMultipliers) {
        double base_log = 0, obs_log = 0, sel_log = 0;
        for (std::size_t i = 0; i < std::size(kSuite); ++i) {
            const auto heap =
                static_cast<std::size_t>(mult * static_cast<double>(min_heap[i]));
            const double base = gcSeconds(kSuite[i], heap, std::nullopt);
            const double obs =
                gcSeconds(kSuite[i], heap, PruningState::Observe);
            const double sel = gcSeconds(kSuite[i], heap, PruningState::Select);
            base_log += std::log(base);
            obs_log += std::log(obs / base);
            sel_log += std::log(sel / base);
        }
        const double n = static_cast<double>(std::size(kSuite));
        const double obs_ratio = std::exp(obs_log / n);
        const double sel_ratio = std::exp(sel_log / n);
        (void)base_log;

        char mult_s[16], one[8] = "1.00", obs_s[16], sel_s[16], o1[16], o2[16];
        std::snprintf(mult_s, sizeof mult_s, "%.1f", mult);
        std::snprintf(obs_s, sizeof obs_s, "%.3f", obs_ratio);
        std::snprintf(sel_s, sizeof sel_s, "%.3f", sel_ratio);
        std::snprintf(o1, sizeof o1, "%+.1f%%", (obs_ratio - 1) * 100);
        std::snprintf(o2, sizeof o2, "%+.1f%%", (sel_ratio - 1) * 100);
        table.addRow({mult_s, one, obs_s, sel_s, o1, o2});
    }
    table.print(std::cout);

    std::cout << "\n(Geometric mean over the suite of GC time normalized to\n"
              << " the Base collector at the same heap size. Paper shape:\n"
              << " Observe adds up to ~5%, Select up to ~14% total, shrinking\n"
              << " as the heap grows and collections become rarer.)\n";
    return 0;
}
