/**
 * @file
 * Reproduces paper Figure 6 (Section 5): run-time overhead of leak
 * pruning on non-leaking programs. The paper forces the engine into
 * the SELECT state continuously on DaCapo/SPECjvm98/pseudojbb and
 * reports 5% average overhead on a Pentium 4 and 3% on a Core 2,
 * "virtually all ... from the overhead of read barriers".
 *
 * We run our synthetic non-leaking suite (see src/apps/nonleaking.cpp
 * for the DaCapo-axis mapping) a fixed number of iterations with:
 *   base:   barriers compiled out (the unmodified-VM bar), and
 *   select: barriers on + engine pinned in SELECT.
 * Overhead is the best-of-five interleaved wall-time ratio. One host
 * replaces the paper's two platforms.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>
#include <vector>

#include "apps/leak_workload.h"
#include "harness/driver.h"
#include "harness/report.h"

using namespace lp;

namespace {

/** Fixed per-workload iteration counts (~0.5s base runs). */
struct SuiteSpec {
    const char *name;
    std::uint64_t iterations;
};

const SuiteSpec kSuite[] = {
    {"suite.pointer", 600}, {"suite.churn", 1500}, {"suite.tree", 400},
    {"suite.hash", 300},    {"suite.array", 800},  {"suite.strings", 400},
    {"suite.graph", 500},   {"suite.stack", 1200},
};

double
runOnce(const char *workload, std::uint64_t iters, bool barriers)
{
    DriverConfig cfg;
    cfg.tolerance = barriers ? ToleranceMode::LeakPruning : ToleranceMode::None;
    if (barriers)
        cfg.pinState = PruningState::Select;
    cfg.maxIterations = iters;
    cfg.maxSeconds = 60.0;
    return runWorkloadByName(workload, cfg).seconds;
}

/**
 * Best-of-five with base/select trials interleaved, so scheduler and
 * frequency drift hit both configurations alike (the paper medians
 * five trials of replay-compiled runs for the same reason).
 */
std::pair<double, double>
measurePair(const char *workload, std::uint64_t iters)
{
    double base = 1e9, select = 1e9;
    runOnce(workload, iters, false); // warmup, discarded
    for (int trial = 0; trial < 5; ++trial) {
        base = std::min(base, runOnce(workload, iters, false));
        select = std::min(select, runOnce(workload, iters, true));
    }
    return {base, select};
}

} // namespace

int
main()
{
    registerAllWorkloads();
    printBanner(std::cout, "Figure 6 (ASPLOS'09 Leak Pruning)",
                "run-time overhead of all-the-time read barriers + SELECT "
                "analysis on non-leaking programs");

    TextTable table({"benchmark", "base (s)", "select (s)", "overhead",
                     "barrier reads", "cold-path rate"});
    double log_sum = 0.0;
    int n = 0;

    for (const SuiteSpec &spec : kSuite) {
        const auto [base, select] = measurePair(spec.name, spec.iterations);

        // One extra instrumented run to report barrier counters.
        DriverConfig cfg;
        cfg.pinState = PruningState::Select;
        cfg.maxIterations = spec.iterations;
        cfg.maxSeconds = 60.0;
        const RunResult counted = runWorkloadByName(spec.name, cfg);

        const double overhead = (select - base) / base;
        log_sum += std::log(select / base);
        ++n;

        char base_s[32], sel_s[32], ovh[32], rate[32];
        std::snprintf(base_s, sizeof base_s, "%.3f", base);
        std::snprintf(sel_s, sizeof sel_s, "%.3f", select);
        std::snprintf(ovh, sizeof ovh, "%+.1f%%", overhead * 100.0);
        std::snprintf(rate, sizeof rate, "%.2f%%",
                      counted.barrier.reads
                          ? 100.0 * static_cast<double>(counted.barrier.coldPathHits) /
                                static_cast<double>(counted.barrier.reads)
                          : 0.0);
        table.addRow({spec.name, base_s, sel_s, ovh,
                      std::to_string(counted.barrier.reads), rate});
    }
    table.print(std::cout);

    const double geomean = (std::exp(log_sum / n) - 1.0) * 100.0;
    std::printf("\ngeomean overhead: %+.1f%%   (paper: 5%% on Pentium 4, "
                "3%% on Core 2)\n",
                geomean);
    std::printf("The conditional barrier's fast path fires the cold path\n"
                "at most once per reference per collection, which is why\n"
                "the cold-path rate stays tiny.\n");
    return 0;
}
